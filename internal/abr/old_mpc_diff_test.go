package abr

import (
	"math"
	"math/rand"
	"testing"
)

// oldSelect reproduces the pre-rewrite recursive DFS from commit 7db8c68,
// given the same pred/rebuf/smooth inputs.
func oldSelect(v Video, ctx *Context, h int, pred, rebuf, smooth float64) int {
	bestFirst, bestQoE := 0, math.Inf(-1)
	tracks := v.Tracks()
	seq := make([]int, h)
	var walk func(step int, buffer float64, last int, qoe float64)
	walk = func(step int, buffer float64, last int, qoe float64) {
		if qoe+float64(h-step)*v.Top() <= bestQoE {
			return
		}
		if step == h {
			if qoe > bestQoE {
				bestQoE = qoe
				bestFirst = seq[0]
			}
			return
		}
		for q := 0; q < tracks; q++ {
			seq[step] = q
			dl := v.ChunkMb(q) / pred
			stall := 0.0
			b := buffer
			if dl > b {
				stall = dl - b
				b = 0
			} else {
				b -= dl
			}
			b += v.ChunkS
			stepQoE := v.BitratesMbps[q] - rebuf*stall
			if !(step == 0 && ctx.ChunkIndex == 0) {
				prev := last
				if step == 0 {
					prev = ctx.LastQuality
				}
				stepQoE -= smooth * math.Abs(v.BitratesMbps[q]-v.BitratesMbps[prev])
			}
			walk(step+1, b, q, qoe+stepQoE)
		}
	}
	walk(0, ctx.BufferS, ctx.LastQuality, 0)
	return bestFirst
}

func TestNewMPCMatchesOldDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mismatches := 0
	var horizons [mpcHorizon + 1]int
	for trial := 0; trial < 20000; trial++ {
		v := Video{BitratesMbps: []float64{1, 2, 3, 4, 5}, ChunkS: 4, NumChunks: 10}
		if trial%3 == 0 {
			v.BitratesMbps = []float64{0.5, 1, 2, 3}
		}
		m := &MPC{}
		m.Reset()
		ctx := &Context{
			Video:       v,
			ChunkIndex:  1 + rng.Intn(8),
			BufferS:     rng.Float64() * 30,
			LastQuality: rng.Intn(v.Tracks()),
			PastChunkMbps: []float64{
				1 + rng.Float64()*4, 1 + rng.Float64()*4, 1 + rng.Float64()*4,
			},
		}
		// Mirror Select's pred/rebuf/smooth derivation (non-robust, harmonic).
		pred := defaultHarmonic.Predict(ctx)
		if pred <= 0 {
			pred = 0.1
		}
		rebuf := v.Top()
		smooth := 1.0
		// Mirror Select's horizon clamp to the chunks remaining.
		h := mpcHorizon
		if left := v.NumChunks - ctx.ChunkIndex; h > left {
			h = left
		}
		horizons[h]++
		want := oldSelect(v, ctx, h, pred, rebuf, smooth)
		got := m.Select(ctx)
		if got != want {
			mismatches++
			if mismatches <= 5 {
				t.Logf("trial %d: horizon=%d buffer=%.3f last=%d past=%v: old=%d new=%d",
					trial, h, ctx.BufferS, ctx.LastQuality, ctx.PastChunkMbps, want, got)
			}
		}
	}
	t.Logf("mismatches: %d / 20000", mismatches)
	// Chunk indices 1-8 of 10 leave 9-2 chunks, so the clamp must have
	// produced every horizon from 2 up to the full one.
	for h := 2; h <= mpcHorizon; h++ {
		if horizons[h] == 0 {
			t.Errorf("no trial ran at horizon %d", h)
		}
	}
	if mismatches > 0 {
		t.Fail()
	}
}
