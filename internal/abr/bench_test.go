package abr

import (
	"testing"

	"fivegsim/internal/trace"
)

func benchVideo(b *testing.B) Video {
	b.Helper()
	v, err := NewVideo(300, 4, 160, 6)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkSimulateMPC measures one fastMPC playback with a reused scratch —
// the inner loop of every ABR figure. The headline number is allocs/op: the
// steady path is allocation-free.
func BenchmarkSimulateMPC(b *testing.B) {
	v := benchVideo(b)
	tr := trace.Gen5GmmWave(11, 400)
	algo := &MPC{}
	sc := &Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateScratch(v, algo, tr, Options{}, sc)
	}
}

// BenchmarkMPCSelect isolates one branch-and-bound track decision at a
// mid-session state.
func BenchmarkMPCSelect(b *testing.B) {
	v := benchVideo(b)
	algo := &MPC{}
	algo.Reset()
	ctx := &Context{
		Video:          v,
		ChunkIndex:     10,
		BufferS:        12,
		LastQuality:    3,
		PastChunkMbps:  []float64{180, 150, 90, 210, 170},
		PastChunkTimeS: []float64{2.1, 2.4, 3.9, 1.8, 2.2},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Select(ctx)
	}
}

// BenchmarkEvaluateSerial measures one robustMPC evaluation over 16 traces:
// the per-algorithm point of an ABR figure.
func BenchmarkEvaluateSerial(b *testing.B) {
	v := benchVideo(b)
	traces := trace.GenSet5G(16, 400, 21)
	algo := &MPC{Robust: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(v, algo, traces, Options{})
	}
}
