package abr

import (
	"math"
	"testing"

	"fivegsim/internal/trace"
)

func video5G(t *testing.T) Video {
	t.Helper()
	v, err := NewVideo(300, 4, 160, 6)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func video4G(t *testing.T) Video {
	t.Helper()
	v, err := NewVideo(300, 4, 20, 6)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func flat(mbps float64, n int) []float64 {
	tr := make([]float64, n)
	for i := range tr {
		tr[i] = mbps
	}
	return tr
}

func TestNewVideoLadder(t *testing.T) {
	v := video5G(t)
	if v.Top() != 160 {
		t.Errorf("top = %v", v.Top())
	}
	if v.Tracks() != 6 {
		t.Errorf("tracks = %d", v.Tracks())
	}
	// Adjacent tracks differ by the 1.5 encoding ratio (§5.1).
	for i := 1; i < v.Tracks(); i++ {
		r := v.BitratesMbps[i] / v.BitratesMbps[i-1]
		if math.Abs(r-LadderRatio) > 1e-9 {
			t.Errorf("ladder ratio at %d = %v", i, r)
		}
	}
	if v.NumChunks != 75 {
		t.Errorf("chunks = %d, want 75", v.NumChunks)
	}
	if got := v.ChunkMb(5); got != 640 {
		t.Errorf("top chunk = %v Mb, want 640", got)
	}
}

func TestNewVideoValidation(t *testing.T) {
	bad := [][4]float64{{0, 4, 160, 6}, {300, 0, 160, 6}, {300, 4, 0, 6}, {300, 4, 160, 1}}
	for _, b := range bad {
		if _, err := NewVideo(b[0], b[1], b[2], int(b[3])); err == nil {
			t.Errorf("NewVideo(%v) did not error", b)
		}
	}
}

func TestSimulateAbundantBandwidth(t *testing.T) {
	// With bandwidth far above the top track, every algorithm should
	// converge to the top track with zero stalls.
	v := video4G(t)
	tr := flat(500, 400)
	for _, a := range []Algorithm{&BBA{}, &RB{}, &BOLA{}, &MPC{}, &MPC{Robust: true}, &FESTIVE{}} {
		r := Simulate(v, a, tr, Options{})
		if r.StallS != 0 {
			t.Errorf("%s: stalls %v with abundant bandwidth", a.Name(), r.StallS)
		}
		if r.NormBitrate < 0.85 {
			t.Errorf("%s: bitrate %v with abundant bandwidth", a.Name(), r.NormBitrate)
		}
	}
}

func TestSimulateStarvedBandwidth(t *testing.T) {
	// With bandwidth below the lowest track, everything stalls heavily but
	// the simulation still terminates with sane accounting.
	v := video4G(t)
	tr := flat(1.0, 4000) // lowest track is ~2.6 Mbps
	r := Simulate(v, &RB{}, tr, Options{})
	if r.StallS <= 0 {
		t.Error("no stalls under starvation")
	}
	if r.NormBitrate > 0.3 {
		t.Errorf("bitrate %v under starvation", r.NormBitrate)
	}
	if len(r.Qualities) != v.NumChunks {
		t.Errorf("chunks played = %d", len(r.Qualities))
	}
}

func TestResultAccounting(t *testing.T) {
	v := video5G(t)
	tr := trace.Gen5GmmWave(1, 400)
	r := Simulate(v, &MPC{}, tr, Options{})
	if len(r.Qualities) != v.NumChunks || len(r.DownloadS) != v.NumChunks ||
		len(r.BufferAtSelectS) != v.NumChunks {
		t.Fatal("per-chunk series length mismatch")
	}
	// Usage integral equals total downloaded megabits.
	var usage, size float64
	for _, u := range r.UsageMbps {
		usage += u
	}
	for _, q := range r.Qualities {
		size += v.ChunkMb(q)
	}
	if math.Abs(usage-size) > 1e-6*size {
		t.Errorf("usage %.1f Mb vs chunk sizes %.1f Mb", usage, size)
	}
	if r.StallPct < 0 || r.StallPct > 100 {
		t.Errorf("stall pct = %v", r.StallPct)
	}
	if r.NormBitrate <= 0 || r.NormBitrate > 1 {
		t.Errorf("norm bitrate = %v", r.NormBitrate)
	}
	if r.DurationS < float64(v.NumChunks)*v.ChunkS {
		t.Errorf("session duration %v below video length", r.DurationS)
	}
}

func TestBufferNeverExceedsCap(t *testing.T) {
	v := video4G(t)
	tr := flat(100, 400)
	r := Simulate(v, &BBA{}, tr, Options{MaxBufferS: 12})
	for i, b := range r.BufferAtSelectS {
		if b > 12+1e-9 {
			t.Fatalf("buffer %v exceeds cap at chunk %d", b, i)
		}
	}
}

func TestQoEPenalisesStalls(t *testing.T) {
	v := video4G(t)
	good := Simulate(v, &MPC{}, flat(100, 400), Options{})
	bad := Simulate(v, &MPC{}, flat(3, 3000), Options{})
	if bad.QoE >= good.QoE {
		t.Errorf("QoE not ordered: starved %v >= abundant %v", bad.QoE, good.QoE)
	}
}

func TestAlgorithmsHandleFirstChunk(t *testing.T) {
	// With no history every algorithm must pick a valid track.
	v := video5G(t)
	ctx := &Context{Video: v}
	for _, a := range []Algorithm{&BBA{}, &RB{}, &BOLA{}, &MPC{}, &MPC{Robust: true}, &FESTIVE{}} {
		a.Reset()
		q := a.Select(ctx)
		if q < 0 || q >= v.Tracks() {
			t.Errorf("%s first pick = %d", a.Name(), q)
		}
	}
}

func TestBBABufferMapping(t *testing.T) {
	v := video5G(t)
	b := &BBA{}
	low := b.Select(&Context{Video: v, BufferS: 2})
	mid := b.Select(&Context{Video: v, BufferS: 11})
	high := b.Select(&Context{Video: v, BufferS: 18})
	if low != 0 {
		t.Errorf("low-buffer pick = %d, want 0", low)
	}
	if high != v.Tracks()-1 {
		t.Errorf("high-buffer pick = %d, want top", high)
	}
	if !(mid > low && mid < high) {
		t.Errorf("mid-buffer pick = %d, want interior", mid)
	}
}

func TestBOLAMonotoneInBuffer(t *testing.T) {
	v := video5G(t)
	b := &BOLA{}
	prev := -1
	for buf := 0.0; buf <= 20; buf += 2 {
		q := b.Select(&Context{Video: v, BufferS: buf})
		if q < prev {
			t.Fatalf("BOLA not monotone in buffer at %v s", buf)
		}
		prev = q
	}
}

func TestRBFollowsThroughput(t *testing.T) {
	v := video5G(t)
	r := &RB{}
	lowQ := r.Select(&Context{Video: v, PastChunkMbps: []float64{30, 30, 30}})
	highQ := r.Select(&Context{Video: v, PastChunkMbps: []float64{400, 400, 400}})
	if lowQ >= highQ {
		t.Errorf("RB picks: low-throughput %d vs high %d", lowQ, highQ)
	}
	if highQ != v.Tracks()-1 {
		t.Errorf("RB at 400 Mbps = %d, want top", highQ)
	}
}

func TestFESTIVEGradualSwitching(t *testing.T) {
	v := video5G(t)
	f := &FESTIVE{}
	f.Reset()
	// Plenty of bandwidth: must step up one level at a time, not jump.
	ctx := &Context{Video: v, LastQuality: 0,
		PastChunkMbps: []float64{500, 500, 500, 500, 500}}
	seen := []int{}
	cur := 0
	for i := 0; i < 16; i++ {
		ctx.LastQuality = cur
		q := f.Select(ctx)
		if q > cur+1 {
			t.Fatalf("FESTIVE jumped from %d to %d", cur, q)
		}
		seen = append(seen, q)
		cur = q
	}
	if cur != v.Tracks()-1 {
		t.Errorf("FESTIVE never reached the top: %v", seen)
	}
}

func TestMPCOracleBeatsHarmonic(t *testing.T) {
	// Fig. 18a's headline ordering: truthMPC >= hmMPC in QoE, with fewer
	// stalls, on mmWave traces.
	v := video5G(t)
	traces := trace.GenSet5G(25, 320, 11)
	hm := Evaluate(v, &MPC{}, traces, Options{})
	truth := Evaluate(v, &MPC{Label: "truthMPC", Pred: &OraclePredictor{}}, traces, Options{})
	if truth.MeanQoE <= hm.MeanQoE {
		t.Errorf("oracle QoE %v <= harmonic %v", truth.MeanQoE, hm.MeanQoE)
	}
	if truth.StallPct >= hm.StallPct {
		t.Errorf("oracle stalls %v >= harmonic %v", truth.StallPct, hm.StallPct)
	}
}

func TestGBDTPredictorBetweenHmAndTruth(t *testing.T) {
	v := video5G(t)
	eval := trace.GenSet5G(25, 320, 11)
	gbdt, err := TrainGBDTPredictor(trace.GenSet5G(30, 320, 555), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	hm := Evaluate(v, &MPC{}, eval, Options{})
	mid := Evaluate(v, &MPC{Label: "gbdtMPC", Pred: gbdt}, eval, Options{})
	truth := Evaluate(v, &MPC{Label: "truthMPC", Pred: &OraclePredictor{}}, eval, Options{})
	// §5.3: the learned predictor improves over harmonic mean and sits
	// below the oracle.
	if mid.MeanQoE <= hm.MeanQoE {
		t.Errorf("GBDT QoE %v <= hm %v", mid.MeanQoE, hm.MeanQoE)
	}
	if mid.MeanQoE >= truth.MeanQoE {
		t.Errorf("GBDT QoE %v >= oracle %v", mid.MeanQoE, truth.MeanQoE)
	}
	if mid.StallPct >= hm.StallPct {
		t.Errorf("GBDT stalls %v >= hm %v", mid.StallPct, hm.StallPct)
	}
}

func TestRobustMPCFewerStallsThanFast(t *testing.T) {
	v := video5G(t)
	traces := trace.GenSet5G(25, 320, 17)
	fast := Evaluate(v, &MPC{}, traces, Options{})
	robust := Evaluate(v, &MPC{Robust: true}, traces, Options{})
	if robust.StallPct >= fast.StallPct {
		t.Errorf("robustMPC stalls %v >= fastMPC %v", robust.StallPct, fast.StallPct)
	}
	if robust.NormBitrate >= fast.NormBitrate {
		t.Errorf("robustMPC bitrate %v >= fastMPC %v (conservatism should cost rate)",
			robust.NormBitrate, fast.NormBitrate)
	}
}

func TestShorterChunksImproveQoE(t *testing.T) {
	// Fig. 18b: 1 s chunks give higher bitrate and fewer stalls than 4 s.
	traces := trace.GenSet5G(25, 320, 23)
	var stall [3]float64
	var bitrate [3]float64
	for i, chunk := range []float64{4, 2, 1} {
		v, err := NewVideo(300, chunk, 160, 6)
		if err != nil {
			t.Fatal(err)
		}
		g := Evaluate(v, &MPC{}, traces, Options{})
		stall[i] = g.StallPct
		bitrate[i] = g.NormBitrate
	}
	if !(stall[2] < stall[0]) {
		t.Errorf("1s-chunk stalls %v not below 4s %v", stall[2], stall[0])
	}
	if !(bitrate[2] > bitrate[0]) {
		t.Errorf("1s-chunk bitrate %v not above 4s %v", bitrate[2], bitrate[0])
	}
}

func TestStallsWorseOn5G(t *testing.T) {
	// The central Fig. 17 result: algorithms that are clean on 4G suffer
	// far more stall time on mmWave 5G.
	v5, v4 := video5G(t), video4G(t)
	tr5 := trace.GenSet5G(25, 320, 31)
	tr4 := trace.GenSet4G(25, 320, 31)
	var inc []float64
	for _, mk := range []func() Algorithm{
		func() Algorithm { return &RB{} },
		func() Algorithm { return &BOLA{} },
		func() Algorithm { return &MPC{} },
		func() Algorithm { return &MPC{Robust: true} },
		func() Algorithm { return &FESTIVE{} },
	} {
		a5, a4 := mk(), mk()
		g5 := Evaluate(v5, a5, tr5, Options{})
		g4 := Evaluate(v4, a4, tr4, Options{})
		if g5.StallPct <= g4.StallPct {
			t.Errorf("%s: 5G stalls %v <= 4G %v", a5.Name(), g5.StallPct, g4.StallPct)
		}
		if g4.StallPct > 0 {
			inc = append(inc, (g5.StallPct-g4.StallPct)/g4.StallPct*100)
		}
	}
	// Bitrates stay comparable (paper: average normalised-bitrate drop of
	// only ~3.5%).
	g5 := Evaluate(v5, &MPC{}, tr5, Options{})
	g4 := Evaluate(v4, &MPC{}, tr4, Options{})
	if math.Abs(g5.NormBitrate-g4.NormBitrate) > 0.15 {
		t.Errorf("norm bitrates diverge: 5G %v vs 4G %v", g5.NormBitrate, g4.NormBitrate)
	}
}

func TestEvaluateEmptyTraces(t *testing.T) {
	v := video5G(t)
	agg := Evaluate(v, &RB{}, nil, Options{})
	if agg.MeanQoE != 0 || agg.StallPct != 0 {
		t.Error("Evaluate on empty traces should be zero")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	v := video5G(t)
	tr := trace.Gen5GmmWave(5, 400)
	a := Simulate(v, &MPC{}, tr, Options{})
	b := Simulate(v, &MPC{}, tr, Options{})
	if a.QoE != b.QoE || a.StallS != b.StallS {
		t.Error("simulation not deterministic")
	}
}
