package abr

import (
	"fmt"

	"fivegsim/internal/stats"
)

// Scheme selects the radio-interface policy for video streaming (§5.4).
type Scheme int

const (
	// Always5G streams the whole session over the 5G interface.
	Always5G Scheme = iota
	// FiveGAware switches to 4G when the predicted 5G throughput drops
	// below 4G's average, and back to 5G once the buffer refills past a
	// threshold; interface switches cost a delay (§4's 4G<->5G switch).
	FiveGAware
	// FiveGAwareNoOverhead is FiveGAware with instantaneous switches (the
	// idealised comparison point of Fig. 18c).
	FiveGAwareNoOverhead
)

func (s Scheme) String() string {
	switch s {
	case Always5G:
		return "5G-only"
	case FiveGAware:
		return "5G-aware"
	case FiveGAwareNoOverhead:
		return "5G-aware NO"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// SwitchDelayS is the 4G<->5G interface switch delay emulated with tc in
// the paper (driven by the promotion delays of Table 7).
const SwitchDelayS = 1.5

// BufferHighS is the buffer threshold for switching back to 5G
// ("empirically set to 10s", §5.4).
const BufferHighS = 10

// IfaceResult extends the playback metrics with the interface trace.
type IfaceResult struct {
	Result
	// On5G reports, for each second of UsageMbps, which interface was
	// active (the one that last downloaded during that second).
	On5G       []bool
	Switches4G int     // number of 5G->4G switches
	Time4GS    float64 // download time spent on 4G
}

// SimulateIface plays the video with per-chunk interface selection. tr5 and
// tr4 are the 5G and 4G bandwidth traces; algo is the base ABR (fastMPC in
// the paper). bufferHighS is the buffer level at which a 4G detour returns
// to 5G (the paper's empirical BufferHighS, or a swept value when ablating
// the §5.4 design choice). The player runs at its default buffer cap and
// QoE weights.
func SimulateIface(v Video, algo Algorithm, tr5, tr4 []float64, scheme Scheme, bufferHighS float64) IfaceResult {
	avg4G := stats.Mean(tr4)
	st := &ifaceState{
		tr4: tr4, scheme: scheme, bufferHighS: bufferHighS, avg4G: avg4G,
		// During a 4G fallback the scheme caps the track at what 4G
		// sustainably carries: the point of the detour is to rebuild the
		// buffer, not to chase quality the interface cannot deliver.
		cap4G: highestBelow(v, avg4G*0.8),
		on5G:  true,
	}
	r := Simulate(v, algo, tr5, Options{iface: st})
	r.Algorithm += "/" + scheme.String()
	return IfaceResult{Result: r, On5G: st.secOn5G, Switches4G: st.switches4G, Time4GS: st.time4GS}
}

// ifaceState is the interface-selection state SimulateScratch consults at
// each chunk boundary: which trace the chunk downloads over, whether a
// switch delay is charged, and whether the track is capped at 4G's rate.
type ifaceState struct {
	tr4         []float64
	scheme      Scheme
	bufferHighS float64
	avg4G       float64
	cap4G       int

	on5G   bool
	past5G []float64 // chunk throughputs observed while on 5G

	switches4G int
	time4GS    float64
	secOn5G    []bool // per second of usage: the interface that last downloaded
}

// choose makes the interface decision at a chunk boundary, charging a
// switch's delay (and any stall it causes) to the session, and returns
// the new time and buffer level.
func (st *ifaceState) choose(t, buffer float64, res *Result) (float64, float64) {
	switched := false
	if st.on5G && st.scheme != Always5G {
		// Predict near-term 5G throughput from the most recent 5G chunks;
		// reacting within a chunk or two is what makes the scheme effective
		// against mmWave dips.
		pred := stats.HarmonicMean(lastN(st.past5G, 3))
		if last := lastN(st.past5G, 1); len(last) == 1 && last[0] < pred {
			pred = last[0]
		}
		// Switch only when the dip actually threatens playback (the buffer
		// is below the high-water mark); with a full buffer the player can
		// ride out a short dip without paying two switch delays.
		if len(st.past5G) >= 1 && pred < st.avg4G && buffer < st.bufferHighS {
			st.on5G = false
			st.switches4G++
			switched = true
		}
	} else if !st.on5G && buffer >= st.bufferHighS {
		st.on5G = true
		switched = true
	}
	if switched && st.scheme == FiveGAware {
		t += SwitchDelayS
		if SwitchDelayS > buffer {
			res.StallS += SwitchDelayS - buffer
			buffer = 0
		} else {
			buffer -= SwitchDelayS
		}
	}
	return t, buffer
}

// link returns the trace the next chunk downloads over.
func (st *ifaceState) link(tr5 []float64) []float64 {
	if st.on5G {
		return tr5
	}
	return st.tr4
}

// capTrack caps track q at what 4G sustains while on 4G.
func (st *ifaceState) capTrack(q int) int {
	if !st.on5G && q > st.cap4G {
		return st.cap4G
	}
	return q
}

// record books a finished chunk download that started in second first
// and left n seconds of usage: its throughput thr and duration dl, and the
// current interface for every second from first on.
func (st *ifaceState) record(first, n int, thr, dl float64) {
	if st.on5G {
		st.past5G = append(st.past5G, thr)
	} else {
		st.time4GS += dl
	}
	st.secOn5G = st.secOn5G[:min(first, len(st.secOn5G))]
	for len(st.secOn5G) < n {
		st.secOn5G = append(st.secOn5G, st.on5G)
	}
}

func lastN(xs []float64, n int) []float64 {
	if len(xs) > n {
		return xs[len(xs)-n:]
	}
	return xs
}
