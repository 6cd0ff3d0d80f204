package abr

import (
	"math"
	"math/rand"
	"testing"
)

// bruteSelect is MPC's decision by exhaustive enumeration: every track
// sequence over the horizon, no pruning, each path's QoE summed in
// Select's order. It returns the lowest first track among the exact
// maximisers, and how many distinct first tracks reach the maximum.
func bruteSelect(v Video, ctx *Context, h int, pred float64) (first, tiedFirsts int) {
	tracks := v.Tracks()
	rebuf := v.Top()
	best := math.Inf(-1)
	var atBest []bool
	seq := make([]int, h)
	total := 1
	for i := 0; i < h; i++ {
		total *= tracks
	}
	for code := 0; code < total; code++ {
		c := code
		for i := h - 1; i >= 0; i-- {
			seq[i] = c % tracks
			c /= tracks
		}
		qoe, buffer, last := 0.0, ctx.BufferS, ctx.LastQuality
		for step, q := range seq {
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
				stepQoE -= math.Abs(v.BitratesMbps[q] - v.BitratesMbps[last])
			}
			qoe += stepQoE
			buffer, last = b, q
		}
		if qoe > best {
			best = qoe
			atBest = make([]bool, tracks)
		}
		if qoe == best {
			atBest[seq[0]] = true
		}
	}
	first = -1
	for q, ok := range atBest {
		if ok {
			if first < 0 {
				first = q
			}
			tiedFirsts++
		}
	}
	return first, tiedFirsts
}

// selectPred is the throughput estimate m.Select(ctx) will plan with: the
// predictor's output, RobustMPC's discount by the recent prediction
// errors (including the one Select records first), and the 0.1 floor. It
// reads m and changes nothing.
func selectPred(m *MPC, ctx *Context) float64 {
	pred := m.predictor().Predict(ctx)
	errs, n := m.predErrs, m.nPredErr
	if m.lastPred > 0 && len(ctx.PastChunkMbps) > 0 {
		if actual := ctx.PastChunkMbps[len(ctx.PastChunkMbps)-1]; actual > 0 {
			errs[m.errHead] = math.Abs(m.lastPred-actual) / actual
			if n < predErrWindow {
				n++
			}
		}
	}
	if m.Robust {
		e := 0.0
		for i := 0; i < n; i++ {
			e = math.Max(e, errs[i])
		}
		pred /= 1 + math.Min(e, 1)
	}
	if pred <= 0 {
		pred = 0.1
	}
	return pred
}

// TestMPCMatchesBruteForce holds Select's branch and bound to exhaustive
// enumeration over seeded contexts: chunk 0 (no switch cost on the first
// step) through the last chunk (horizon 1), fastMPC and RobustMPC (each
// playing a session of decisions, so the error window fills), integer
// ladders, NewVideo's six-track ladder, and two tie generators. With a
// buffer too large to stall, an integer ladder's QoE is exact integer
// arithmetic; with dyadic bitrates, chunk length, buffer and a constant
// throughput history (so the prediction is dyadic too), stalls are exact
// as well. Both produce exact ties among first tracks, where only the
// tie-break decides.
func TestMPCMatchesBruteForce(t *testing.T) {
	six, err := NewVideo(300, 4, 160, 6)
	if err != nil {
		t.Fatal(err)
	}
	type setup struct {
		name   string
		v      Video
		past   func(rng *rand.Rand) float64 // one past chunk throughput
		buffer func(rng *rand.Rand) float64
	}
	setups := []setup{
		{"integer", Video{BitratesMbps: []float64{1, 2, 3, 4, 5}, ChunkS: 4, NumChunks: 10},
			func(rng *rand.Rand) float64 { return 1 + rng.Float64()*4 },
			func(rng *rand.Rand) float64 { return rng.Float64() * 30 }},
		{"four-track", Video{BitratesMbps: []float64{0.5, 1, 2, 3}, ChunkS: 4, NumChunks: 10},
			func(rng *rand.Rand) float64 { return 0.5 + rng.Float64()*3 },
			func(rng *rand.Rand) float64 { return rng.Float64() * 30 }},
		{"six-track", six,
			func(rng *rand.Rand) float64 { return 20 + rng.Float64()*230 },
			func(rng *rand.Rand) float64 { return rng.Float64() * 40 }},
		{"ties-no-stall", Video{BitratesMbps: []float64{1, 2, 3, 4, 5}, ChunkS: 4, NumChunks: 10},
			func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(5)) },
			func(rng *rand.Rand) float64 { return 1e6 }},
		{"ties-dyadic", Video{BitratesMbps: []float64{1, 2, 4, 8}, ChunkS: 2, NumChunks: 8},
			func(rng *rand.Rand) float64 { return 4 },
			func(rng *rand.Rand) float64 { return float64(rng.Intn(17)) / 2 }},
	}
	rng := rand.New(rand.NewSource(7))
	decisions, mismatches, chunk0, ties := 0, 0, 0, 0
	for _, su := range setups {
		for _, robust := range []bool{false, true} {
			for session := 0; session < 40; session++ {
				m := &MPC{Robust: robust}
				m.Reset()
				for d := 0; d < 20; d++ {
					ctx := &Context{
						Video:       su.v,
						BufferS:     su.buffer(rng),
						LastQuality: rng.Intn(su.v.Tracks()),
					}
					// A third of the decisions at chunk 0, a sixth at the
					// last chunk, the rest anywhere.
					switch r := rng.Intn(6); {
					case r < 2:
						ctx.ChunkIndex = 0
					case r == 2:
						ctx.ChunkIndex = su.v.NumChunks - 1
					default:
						ctx.ChunkIndex = rng.Intn(su.v.NumChunks)
					}
					if ctx.ChunkIndex > 0 {
						for k := rng.Intn(6) + 1; k > 0; k-- {
							ctx.PastChunkMbps = append(ctx.PastChunkMbps, su.past(rng))
						}
					}
					h := mpcHorizon
					if left := su.v.NumChunks - ctx.ChunkIndex; h > left {
						h = left
					}
					want, tied := bruteSelect(su.v, ctx, h, selectPred(m, ctx))
					got := m.Select(ctx)
					decisions++
					if ctx.ChunkIndex == 0 {
						chunk0++
					}
					if tied > 1 {
						ties++
					}
					if got != want {
						mismatches++
						if mismatches <= 5 {
							t.Errorf("%s robust=%v: chunk %d horizon %d buffer %v last %d past %v: Select=%d, brute force=%d (%d tied first tracks)",
								su.name, robust, ctx.ChunkIndex, h, ctx.BufferS, ctx.LastQuality,
								ctx.PastChunkMbps, got, want, tied)
						}
					}
				}
			}
		}
	}
	t.Logf("%d decisions, %d at chunk 0, %d with tied first tracks, %d mismatches",
		decisions, chunk0, ties, mismatches)
	if chunk0 == 0 || ties < decisions/20 {
		t.Errorf("coverage too thin: %d decisions at chunk 0, %d with ties", chunk0, ties)
	}
}
