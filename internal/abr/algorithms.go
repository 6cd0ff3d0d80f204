package abr

import (
	"math"

	"fivegsim/internal/stats"
)

// ---------------------------------------------------------------------------
// Buffer-based: BBA (Huang et al., SIGCOMM'14)

// BBA maps the buffer level linearly onto the bitrate ladder between a
// reservoir and a cushion, ignoring throughput estimates entirely.
type BBA struct{}

// BBA's linear mapping region, sized to the 20 s player buffer: the lowest
// track up to the reservoir, the top track past reservoir plus cushion.
const (
	bbaReservoirS = 5
	bbaCushionS   = 12
)

// Name implements Algorithm.
func (b *BBA) Name() string { return "BBA" }

// Reset implements Algorithm.
func (b *BBA) Reset() {}

// Select implements Algorithm.
func (b *BBA) Select(ctx *Context) int {
	v := ctx.Video
	if ctx.BufferS <= bbaReservoirS {
		return 0
	}
	if ctx.BufferS >= bbaReservoirS+bbaCushionS {
		return v.Tracks() - 1
	}
	frac := (ctx.BufferS - bbaReservoirS) / bbaCushionS
	q := int(frac * float64(v.Tracks()-1))
	if q >= v.Tracks() {
		q = v.Tracks() - 1
	}
	return q
}

// ---------------------------------------------------------------------------
// Buffer-based: BOLA (Spiteri et al., INFOCOM'16)

// BOLA chooses the track maximising a Lyapunov utility-per-byte score given
// the current buffer occupancy, sized to the player's default buffer cap.
type BOLA struct{}

// bolaGP is BOLA's playback-utility weight (gamma*p).
const bolaGP = 5

// Name implements Algorithm.
func (b *BOLA) Name() string { return "BOLA" }

// Reset implements Algorithm.
func (b *BOLA) Reset() {}

// Select implements Algorithm.
func (b *BOLA) Select(ctx *Context) int {
	v := ctx.Video
	q := ctx.BufferS / v.ChunkS // buffer in chunks
	// Utilities: v_m = ln(size_m / size_0).
	top := math.Log(v.BitratesMbps[v.Tracks()-1] / v.BitratesMbps[0])
	V := (defaultMaxBufferS/v.ChunkS - 1) / (top + bolaGP)
	best, bestScore := 0, math.Inf(-1)
	for m := 0; m < v.Tracks(); m++ {
		util := math.Log(v.BitratesMbps[m] / v.BitratesMbps[0])
		score := (V*(util+bolaGP) - q) / v.BitratesMbps[m]
		if score > bestScore {
			bestScore = score
			best = m
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Throughput-based: simple rate-based (RB)

// RB picks the highest track below the harmonic mean of the last hmWindow
// chunk throughputs.
type RB struct{}

// Name implements Algorithm.
func (r *RB) Name() string { return "RB" }

// Reset implements Algorithm.
func (r *RB) Reset() {}

// Select implements Algorithm.
func (r *RB) Select(ctx *Context) int {
	past := ctx.PastChunkMbps
	if len(past) == 0 {
		return 0
	}
	if len(past) > hmWindow {
		past = past[len(past)-hmWindow:]
	}
	return highestBelow(ctx.Video, stats.HarmonicMean(past))
}

// highestBelow returns the highest track whose bitrate fits within rate.
func highestBelow(v Video, rate float64) int {
	q := 0
	for m, b := range v.BitratesMbps {
		if b <= rate {
			q = m
		}
	}
	return q
}

// ---------------------------------------------------------------------------
// Throughput-based: FESTIVE (Jiang et al., CoNEXT'12)

// FESTIVE combines a long harmonic-mean window with gradual, stability-
// biased switching: it moves at most one ladder step at a time and only
// steps up after several consecutive chunks support the higher rate.
type FESTIVE struct {
	upStreak int
}

// FESTIVE's throughput history length, and how many consecutive
// supporting chunks it needs before stepping up.
const (
	festiveWindow  = 20
	festiveUpCount = 2
)

// Name implements Algorithm.
func (f *FESTIVE) Name() string { return "FESTIVE" }

// Reset implements Algorithm.
func (f *FESTIVE) Reset() { f.upStreak = 0 }

// Select implements Algorithm.
func (f *FESTIVE) Select(ctx *Context) int {
	past := ctx.PastChunkMbps
	if len(past) == 0 {
		return 0
	}
	if len(past) > festiveWindow {
		past = past[len(past)-festiveWindow:]
	}
	pred := stats.HarmonicMean(past)
	target := highestBelow(ctx.Video, pred*0.85)
	cur := ctx.LastQuality
	switch {
	case target > cur:
		f.upStreak++
		if f.upStreak >= festiveUpCount {
			f.upStreak = 0
			return cur + 1
		}
		return cur
	case target < cur:
		f.upStreak = 0
		return cur - 1 // gradual down, one level per chunk
	default:
		f.upStreak = 0
		return cur
	}
}
