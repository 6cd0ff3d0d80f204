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

// IfaceSample records one second of interface usage for energy accounting.
type IfaceSample struct {
	// Mb downloaded during this second.
	Mb float64
	// On5G reports which interface was active.
	On5G bool
}

// IfaceResult extends the playback metrics with the interface trace.
type IfaceResult struct {
	Result
	Samples    []IfaceSample
	Switches4G int // number of 5G->4G switches
	Time4GS    float64
}

// SimulateIface plays the video with per-chunk interface selection. tr5 and
// tr4 are the 5G and 4G bandwidth traces; algo is the base ABR (fastMPC in
// the paper). The buffer threshold is the paper's empirical 10 s, and the
// player runs at its default buffer cap and QoE weights.
func SimulateIface(v Video, algo Algorithm, tr5, tr4 []float64, scheme Scheme) IfaceResult {
	return SimulateIfaceThreshold(v, algo, tr5, tr4, scheme, BufferHighS)
}

// SimulateIfaceThreshold is SimulateIface with an explicit buffer
// threshold, for ablating the §5.4 design choice.
func SimulateIfaceThreshold(v Video, algo Algorithm, tr5, tr4 []float64, scheme Scheme, bufferHighS float64) IfaceResult {
	algo.Reset()
	res := IfaceResult{Result: Result{Algorithm: algo.Name() + "/" + scheme.String()}}
	avg4G := stats.Mean(tr4)
	ctx := &Context{Video: v}
	t := 0.0
	buffer := 0.0
	last := 0
	on5G := true
	var past5G []float64 // chunk throughputs observed while on 5G

	markUsage := func(sec int, mb float64, on5g bool) {
		for len(res.Samples) <= sec {
			res.Samples = append(res.Samples, IfaceSample{On5G: on5g})
		}
		res.Samples[sec].Mb += mb
		res.Samples[sec].On5G = on5g
	}

	// One oracle closure for the whole session: the loop below retargets
	// oracleTr/oracleT per chunk instead of allocating a fresh closure.
	var oracleTr []float64
	var oracleT float64
	ctx.Oracle = func(h float64) float64 {
		if h <= 0 {
			return bwAt(oracleTr, int(oracleT))
		}
		s := 0.0
		for k := 0.0; k < h; k++ {
			s += bwAt(oracleTr, int(oracleT+k))
		}
		return s / h
	}
	var usage []float64 // per-chunk usage buffer, reused across chunks

	for i := 0; i < v.NumChunks; i++ {
		// Interface decision at the chunk boundary.
		if on5G && scheme != Always5G {
			// Predict near-term 5G throughput from the most recent 5G
			// chunks; reacting within a chunk or two is what makes the
			// scheme effective against mmWave dips.
			pred := stats.HarmonicMean(lastN(past5G, 3))
			if last := lastN(past5G, 1); len(last) == 1 && last[0] < pred {
				pred = last[0]
			}
			// Switch only when the dip actually threatens playback (the
			// buffer is below the high-water mark); with a full buffer the
			// player can ride out a short dip without paying two switch
			// delays.
			if len(past5G) >= 1 && pred < avg4G && buffer < bufferHighS {
				on5G = false
				res.Switches4G++
				if scheme == FiveGAware {
					t += SwitchDelayS
					if SwitchDelayS > buffer {
						res.StallS += SwitchDelayS - buffer
						buffer = 0
					} else {
						buffer -= SwitchDelayS
					}
				}
			}
		} else if !on5G && buffer >= bufferHighS {
			on5G = true
			if scheme == FiveGAware {
				t += SwitchDelayS
				if SwitchDelayS > buffer {
					res.StallS += SwitchDelayS - buffer
					buffer = 0
				} else {
					buffer -= SwitchDelayS
				}
			}
		}

		tr := tr5
		if !on5G {
			tr = tr4
		}
		ctx.ChunkIndex = i
		ctx.BufferS = buffer
		ctx.LastQuality = last
		oracleTr, oracleT = tr, t
		q := algo.Select(ctx)
		if q < 0 {
			q = 0
		}
		if q >= v.Tracks() {
			q = v.Tracks() - 1
		}
		// During a 4G fallback the scheme caps the track at what 4G
		// sustainably carries: the point of the detour is to rebuild the
		// buffer, not to chase quality the interface cannot deliver.
		if !on5G {
			if cap4g := highestBelow(v, avg4G*0.8); q > cap4g {
				q = cap4g
			}
		}
		size := v.ChunkMb(q)

		usage = usage[:0]
		done := download(tr, t, size, &usage)
		dl := done - t
		for s, mb := range usage {
			if mb > 0 {
				markUsage(s, mb, on5G)
			}
		}
		if !on5G {
			res.Time4GS += dl
		}
		if i == 0 {
			res.StartupS = dl
			buffer = v.ChunkS
		} else {
			if dl > buffer {
				res.StallS += dl - buffer
				buffer = 0
			} else {
				buffer -= dl
			}
			buffer += v.ChunkS
		}
		t = done
		if buffer > defaultMaxBufferS {
			wait := buffer - defaultMaxBufferS
			t += wait
			buffer = defaultMaxBufferS
		}

		thr := size / dl
		ctx.PastChunkMbps = append(ctx.PastChunkMbps, thr)
		ctx.PastChunkTimeS = append(ctx.PastChunkTimeS, dl)
		if on5G {
			past5G = append(past5G, thr)
		}
		res.Qualities = append(res.Qualities, q)
		res.AvgBitrateMbps += v.BitratesMbps[q]
		res.QoE += v.BitratesMbps[q]
		if i > 0 {
			diff := absf(v.BitratesMbps[q] - v.BitratesMbps[last])
			res.QoE -= diff
			if q != last {
				res.Switches++
			}
		}
		last = q
	}
	res.QoE -= v.Top() * res.StallS
	res.AvgBitrateMbps /= float64(len(res.Qualities))
	res.NormBitrate = res.AvgBitrateMbps / v.Top()
	res.DurationS = t + buffer
	wall := float64(v.NumChunks)*v.ChunkS + res.StallS
	res.StallPct = res.StallS / wall * 100
	return res
}

func lastN(xs []float64, n int) []float64 {
	if len(xs) > n {
		return xs[len(xs)-n:]
	}
	return xs
}
