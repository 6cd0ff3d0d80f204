package abr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fivegsim/internal/trace"
)

// randomAlgo picks uniformly random valid tracks: a worst-case stress
// driver for the player accounting.
type randomAlgo struct{ rng *rand.Rand }

func (r *randomAlgo) Name() string { return "random" }
func (r *randomAlgo) Reset()       {}
func (r *randomAlgo) Select(ctx *Context) int {
	return r.rng.Intn(ctx.Video.Tracks())
}

// TestPlayerAccountingProperty checks, for random videos, traces, and
// (random) ABR decisions, that the session accounting is internally
// consistent: wall time >= playback time, stall percentage in [0,100],
// usage equals bytes requested, buffer samples within [0, cap].
func TestPlayerAccountingProperty(t *testing.T) {
	f := func(seed int64, chunkSel, trackSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		chunkS := []float64{1, 2, 4}[int(chunkSel)%3]
		tracks := 3 + int(trackSel)%4
		v, err := NewVideo(60+rng.Float64()*120, chunkS, 20+rng.Float64()*300, tracks)
		if err != nil {
			return false
		}
		tr := trace.Gen5GmmWave(seed, 400)
		opt := Options{MaxBufferS: 10 + rng.Float64()*30}
		r := Simulate(v, &randomAlgo{rng: rng}, tr, opt)

		if len(r.Qualities) != v.NumChunks {
			return false
		}
		if r.StallPct < 0 || r.StallPct > 100 {
			return false
		}
		if r.StallS < 0 || r.StartupS < 0 {
			return false
		}
		if r.NormBitrate <= 0 || r.NormBitrate > 1+1e-9 {
			return false
		}
		var usage, size float64
		for _, u := range r.UsageMbps {
			if u < 0 {
				return false
			}
			usage += u
		}
		for _, q := range r.Qualities {
			if q < 0 || q >= v.Tracks() {
				return false
			}
			size += v.ChunkMb(q)
		}
		if math.Abs(usage-size) > 1e-6*size {
			return false
		}
		for _, b := range r.BufferAtSelectS {
			if b < 0 || b > opt.MaxBufferS+1e-9 {
				return false
			}
		}
		// Wall-clock duration at least the video length.
		if r.DurationS < float64(v.NumChunks)*v.ChunkS-1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQoEUpperBoundProperty: no algorithm can beat the all-top-no-stall
// QoE bound.
func TestQoEUpperBoundProperty(t *testing.T) {
	f := func(seed int64, algoSel uint8) bool {
		v, err := NewVideo(120, 4, 160, 6)
		if err != nil {
			return false
		}
		algos := []Algorithm{&BBA{}, &RB{}, &BOLA{}, &MPC{}, &MPC{Robust: true}, &FESTIVE{}}
		a := algos[int(algoSel)%len(algos)]
		tr := trace.Gen5GmmWave(seed, 300)
		r := Simulate(v, a, tr, Options{})
		bound := float64(v.NumChunks) * v.Top()
		return r.QoE <= bound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAbundanceProperty: once a trace is scaled so even its deepest dip
// carries the top track comfortably, every algorithm plays the top track
// stall-free. (Note that *moderate* bandwidth increases can legitimately
// hurt MPC — the §5.2 "regret" effect: higher recent throughput lures it
// onto the top track right before a dip.)
func TestAbundanceProperty(t *testing.T) {
	f := func(seed int64, algoSel uint8) bool {
		v, err := NewVideo(120, 4, 160, 6)
		if err != nil {
			return false
		}
		tr := trace.Gen5GmmWave(seed, 300)
		minV := tr[0]
		for _, x := range tr {
			if x < minV {
				minV = x
			}
		}
		scale := 3 * v.Top() / minV
		scaled := make([]float64, len(tr))
		for i, x := range tr {
			scaled[i] = x * scale
		}
		algos := []Algorithm{&RB{}, &MPC{}, &MPC{Robust: true}}
		r := Simulate(v, algos[int(algoSel)%len(algos)], scaled, Options{})
		return r.StallS == 0 && r.NormBitrate > 0.9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestIfaceAccountingProperty mirrors the player property for the
// interface-selection simulator.
func TestIfaceAccountingProperty(t *testing.T) {
	f := func(seed int64, schemeSel uint8) bool {
		v, err := NewVideo(120, 4, 160, 6)
		if err != nil {
			return false
		}
		scheme := []Scheme{Always5G, FiveGAware, FiveGAwareNoOverhead}[int(schemeSel)%3]
		tr5 := trace.Gen5GmmWave(seed, 300)
		tr4 := trace.Gen4G(seed+1, 300)
		r := SimulateIface(v, &MPC{}, tr5, tr4, scheme, BufferHighS)
		if r.StallS < 0 || r.Time4GS < 0 || r.Switches4G < 0 {
			return false
		}
		if scheme == Always5G && (r.Time4GS != 0 || r.Switches4G != 0) {
			return false
		}
		var usage, size float64
		for _, mb := range r.UsageMbps {
			if mb < 0 {
				return false
			}
			usage += mb
		}
		for _, q := range r.Qualities {
			size += v.ChunkMb(q)
		}
		return math.Abs(usage-size) <= 1e-6*size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
