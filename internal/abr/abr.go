// Package abr reproduces the paper's adaptive-bitrate video streaming
// testbed (§5): a chunk-level DASH player simulator driven by recorded
// throughput traces, seven ABR algorithms spanning the four families the
// paper evaluates (buffer-based: BBA, BOLA; throughput-based: RB, FESTIVE;
// control-theoretic: FastMPC, RobustMPC; learning-based: Pensieve), plug-in
// throughput predictors (harmonic mean, GBDT, oracle), and the 5G-aware
// 4G/5G interface-selection scheme of §5.4.
//
// The player model follows the standard trace-driven methodology (tc-shaped
// dash.js in the paper): chunks download sequentially at the trace's
// per-second bandwidth, the playback buffer drains in real time, and QoE is
// the MPC-style linear metric (bitrate minus rebuffer and smoothness
// penalties).
package abr

import (
	"fmt"
	"math"

	"fivegsim/internal/obs"
)

// Video describes an encoded video: equal-length chunks, a bitrate ladder
// ascending by ~1.5x between adjacent tracks (§5.1).
type Video struct {
	// ChunkS is the chunk duration in seconds.
	ChunkS float64
	// BitratesMbps is the ladder in ascending order.
	BitratesMbps []float64
	// NumChunks is the video length in chunks.
	NumChunks int
}

// LadderRatio is the encoded bitrate ratio between adjacent tracks.
const LadderRatio = 1.5

// NewVideo builds a video of durS seconds with the given chunk length and
// number of tracks, the top track at topMbps and each lower track 1.5x
// smaller — the §5.1 encoding (top track = median network throughput:
// 160 Mbps for 5G, 20 Mbps for 4G).
func NewVideo(durS, chunkS, topMbps float64, tracks int) (Video, error) {
	if durS <= 0 || chunkS <= 0 || topMbps <= 0 || tracks < 2 {
		return Video{}, fmt.Errorf("abr: invalid video spec dur=%v chunk=%v top=%v tracks=%d",
			durS, chunkS, topMbps, tracks)
	}
	rates := make([]float64, tracks)
	r := topMbps
	for i := tracks - 1; i >= 0; i-- {
		rates[i] = r
		r /= LadderRatio
	}
	return Video{
		ChunkS:       chunkS,
		BitratesMbps: rates,
		NumChunks:    int(math.Ceil(durS / chunkS)),
	}, nil
}

// Top returns the highest bitrate.
func (v Video) Top() float64 { return v.BitratesMbps[len(v.BitratesMbps)-1] }

// Tracks returns the ladder size.
func (v Video) Tracks() int { return len(v.BitratesMbps) }

// ChunkMb returns the size in megabits of a chunk at track q.
func (v Video) ChunkMb(q int) float64 { return v.BitratesMbps[q] * v.ChunkS }

// Context is the information an ABR algorithm sees when choosing the next
// chunk's track — exactly the observables a dash.js rate controller has.
type Context struct {
	Video      Video
	ChunkIndex int
	// BufferS is the current playback buffer level.
	BufferS float64
	// LastQuality is the track index of the previous chunk.
	LastQuality int
	// PastChunkMbps holds the measured throughput of each completed chunk
	// download (size / download time).
	PastChunkMbps []float64
	// PastChunkTimeS holds the download durations.
	PastChunkTimeS []float64
	// Oracle, when non-nil, returns the true mean bandwidth over the next
	// h seconds of the trace (only truthMPC uses it).
	Oracle func(horizonS float64) float64
}

// Algorithm chooses the next chunk's track.
type Algorithm interface {
	Name() string
	// Select returns the track index for the chunk described by ctx.
	Select(ctx *Context) int
	// Reset clears per-session state before a new playback.
	Reset()
}

// Options configures a playback simulation.
type Options struct {
	// MaxBufferS caps the playback buffer; 0 means defaultMaxBufferS
	// (20 s, the dash.js default ballpark).
	MaxBufferS float64
	// Abandon enables mid-download chunk abandonment: when a download is
	// going to outlive the buffer, the player aborts it and refetches the
	// chunk at the lowest track. This is the rollback mechanism §5.3 notes
	// is missing from chunk-granular ABR ("once made, such decisions
	// cannot be rolled back").
	Abandon bool
	// Obs, when enabled, collects one decision record per chunk plus
	// session counters. nil (the default) keeps the playback loop
	// allocation-free.
	Obs *obs.Obs

	// iface, set only by SimulateIface, picks each chunk's interface.
	iface *ifaceState
}

// defaultMaxBufferS is the player's default buffer cap, and the cap BOLA
// sizes its utility weight to.
const defaultMaxBufferS = 20

func (o Options) withDefaults() Options {
	if o.MaxBufferS == 0 {
		o.MaxBufferS = defaultMaxBufferS
	}
	return o
}

// Result summarises one playback.
type Result struct {
	Algorithm string
	// Qualities is the chosen track per chunk.
	Qualities []int
	// AvgBitrateMbps is the mean selected bitrate.
	AvgBitrateMbps float64
	// NormBitrate is AvgBitrate / top track.
	NormBitrate float64
	// StallS is the total rebuffering time (excluding startup).
	StallS float64
	// StallPct is stall time as a percentage of playback wall time.
	StallPct float64
	// StartupS is the time to first frame.
	StartupS float64
	// Switches counts track changes.
	Switches int
	// QoE is the MPC-style linear QoE total (QoE_lin): the chunk bitrates,
	// minus each switch's bitrate change, minus the stall time weighted by
	// the top bitrate.
	QoE float64
	// Abandons counts mid-download chunk abandonments (Options.Abandon).
	Abandons int
	// WastedMb is the traffic discarded by abandonments.
	WastedMb float64
	// DownloadS is the per-chunk download time.
	DownloadS []float64
	// BufferAtSelectS is the buffer level when each chunk was requested.
	BufferAtSelectS []float64
	// UsageMbps is the per-second downlink usage (for energy accounting).
	UsageMbps []float64
	// DurationS is the wall-clock session length.
	DurationS float64
}

// bwAt returns the trace bandwidth during second s, cycling if playback
// outlasts the trace.
func bwAt(tr []float64, s int) float64 {
	if len(tr) == 0 {
		return 0
	}
	return tr[s%len(tr)]
}

// transfer walks the trace from time t, moving data until sizeMb has
// arrived or the deadline passes, whichever comes first (math.Inf(1) for a
// bound the caller does not use). It records per-second usage and returns
// the end time and the megabits moved.
func transfer(tr []float64, t, sizeMb, deadline float64, usage *[]float64) (float64, float64) {
	remaining, moved := sizeMb, 0.0
	stop := deadline - 1e-12
	const epsRate = 0.01 // a dead link still trickles (retransmissions)
	for remaining > 1e-12 && t < stop {
		s := int(t)
		rate := bwAt(tr, s)
		if rate < epsRate {
			rate = epsRate
		}
		// math.Min(float64(s+1), deadline). This compare differs from
		// math.Min only on a NaN or a pair of zeros, and the deadline is
		// never NaN while s+1 >= 1.
		next := float64(s + 1)
		if deadline < next {
			next = deadline
		}
		can := rate * (next - t)
		if can >= remaining {
			t += remaining / rate
			addUsage(usage, s, remaining)
			moved += remaining
			remaining = 0
		} else {
			addUsage(usage, s, can)
			moved += can
			remaining -= can
			t = next
		}
	}
	return t, moved
}

func addUsage(usage *[]float64, sec int, mb float64) {
	if usage == nil {
		return
	}
	for len(*usage) <= sec {
		*usage = append(*usage, 0)
	}
	(*usage)[sec] += mb
}

// Scratch holds the reusable buffers for a run of Simulate calls: the
// per-chunk result series, the context history, and the oracle closure.
// A zero Scratch is ready to use; one Scratch serves one goroutine. Result
// slices returned by SimulateScratch alias the scratch's buffers and are
// valid only until the next call with the same scratch.
type Scratch struct {
	ctx       Context
	qualities []int
	download  []float64
	bufferAt  []float64
	usage     []float64

	// The oracle closure is built once and reads these two fields, which
	// the simulate loop updates per chunk — replacing the per-chunk closure
	// allocation of the naive form.
	oracleTr []float64
	oracleT  float64
	oracleFn func(horizonS float64) float64
}

// start resets the scratch for a new playback and returns the context to
// drive it with.
func (sc *Scratch) start(v Video) *Context {
	sc.qualities = sc.qualities[:0]
	sc.download = sc.download[:0]
	sc.bufferAt = sc.bufferAt[:0]
	sc.usage = sc.usage[:0]
	if sc.oracleFn == nil {
		sc.oracleFn = func(h float64) float64 {
			tt := sc.oracleT
			if h <= 0 {
				return bwAt(sc.oracleTr, int(tt))
			}
			s := 0.0
			for k := 0.0; k < h; k++ {
				s += bwAt(sc.oracleTr, int(tt+k))
			}
			return s / h
		}
	}
	past := sc.ctx.PastChunkMbps[:0]
	times := sc.ctx.PastChunkTimeS[:0]
	sc.ctx = Context{Video: v, PastChunkMbps: past, PastChunkTimeS: times, Oracle: sc.oracleFn}
	return &sc.ctx
}

// Simulate plays the whole video through algo over the bandwidth trace
// (Mbps at 1-second granularity) and returns the session metrics.
func Simulate(v Video, algo Algorithm, tr []float64, opt Options) Result {
	return SimulateScratch(v, algo, tr, opt, nil)
}

// chunkSpanNums is the number of numeric fields on the span SimulateScratch
// emits per chunk. The span's fields are an array of this length, and
// Evaluate reserves this many per chunk, so the reservation follows the
// record.
const chunkSpanNums = 4

// SimulateScratch is Simulate with caller-owned buffers: passing the same
// scratch across calls makes the steady path allocation-free. nil behaves
// like a fresh scratch (and the Result then owns its slices).
//
//fgvet:noalloc
func SimulateScratch(v Video, algo Algorithm, tr []float64, opt Options, sc *Scratch) Result {
	if sc == nil {
		//fgvet:allow noalloc nil scratch is the convenience path; callers on the hot path pass a reused Scratch
		sc = &Scratch{}
	}
	opt = opt.withDefaults()
	algo.Reset()
	res := Result{Algorithm: algo.Name()}
	ctx := sc.start(v)
	obsOn := opt.Obs.Enabled()
	t := 0.0
	buffer := 0.0
	last := 0
	for i := 0; i < v.NumChunks; i++ {
		// The trace this chunk downloads over: tr, unless interface
		// selection moves the chunk to 4G (after any switch delay).
		link := tr
		if opt.iface != nil {
			t, buffer = opt.iface.choose(t, buffer, &res)
			link = opt.iface.link(tr)
		}
		ctx.ChunkIndex = i
		ctx.BufferS = buffer
		ctx.LastQuality = last
		sc.bufferAt = append(sc.bufferAt, buffer)
		sc.oracleTr, sc.oracleT = link, t
		selT := t // request time, for the chunk's span record
		q := algo.Select(ctx)
		if q < 0 {
			q = 0
		}
		if q >= v.Tracks() {
			q = v.Tracks() - 1
		}
		if opt.iface != nil {
			q = opt.iface.capTrack(q)
		}
		size := v.ChunkMb(q)
		// Chunk abandonment: if this download will outlive the buffer and
		// a cheaper track exists, abort when the buffer runs dry and
		// refetch at the lowest track (the §5.3 rollback).
		if opt.Abandon && i > 0 && q > 0 {
			tentative, _ := transfer(link, t, size, math.Inf(1), nil)
			if tentative-t > buffer+0.25 {
				deadline := t + buffer*0.9 // the player aborts just before starvation
				_, wasted := transfer(link, t, math.Inf(1), deadline, &sc.usage)
				res.WastedMb += wasted
				res.Abandons++
				if obsOn {
					opt.Obs.Meter().Inc("abr.abandons")
				}
				q = 0
				size = v.ChunkMb(q)
				buffer -= deadline - t
				if buffer < 0 {
					buffer = 0
				}
				t = deadline
			}
		}
		done, _ := transfer(link, t, size, math.Inf(1), &sc.usage)
		dl := done - t
		if opt.iface != nil {
			opt.iface.record(int(t), len(sc.usage), size/dl, dl)
		}
		if i == 0 {
			res.StartupS = dl
			buffer = v.ChunkS
		} else {
			if dl > buffer {
				res.StallS += dl - buffer
				if obsOn {
					opt.Obs.Meter().Add("abr.stall_s", dl-buffer)
				}
				buffer = 0
			} else {
				buffer -= dl
			}
			buffer += v.ChunkS
		}
		t = done
		// Buffer cap: the player pauses requests until there is room.
		if buffer > opt.MaxBufferS {
			wait := buffer - opt.MaxBufferS
			t += wait
			buffer = opt.MaxBufferS
		}

		if obsOn {
			opt.Obs.Meter().Inc("abr.chunks")
			span := obs.Span(selT, dl, "abr", "chunk")
			for _, f := range [chunkSpanNums]obs.Field{
				obs.F("idx", float64(i)),
				obs.F("quality", float64(q)),
				obs.F("buffer_s", ctx.BufferS),
				obs.F("download_s", dl),
			} {
				span = span.With(f)
			}
			opt.Obs.Trace().Emit(span)
		}
		ctx.PastChunkMbps = append(ctx.PastChunkMbps, size/dl)
		ctx.PastChunkTimeS = append(ctx.PastChunkTimeS, dl)
		sc.qualities = append(sc.qualities, q)
		sc.download = append(sc.download, dl)
		res.AvgBitrateMbps += v.BitratesMbps[q]
		res.QoE += v.BitratesMbps[q]
		if i > 0 {
			diff := math.Abs(v.BitratesMbps[q] - v.BitratesMbps[last])
			res.QoE -= diff
			if q != last {
				res.Switches++
			}
		}
		last = q
	}
	res.Qualities = sc.qualities
	res.DownloadS = sc.download
	res.BufferAtSelectS = sc.bufferAt
	res.UsageMbps = sc.usage
	res.QoE -= v.Top() * res.StallS
	res.AvgBitrateMbps /= float64(len(res.Qualities))
	res.NormBitrate = res.AvgBitrateMbps / v.Top()
	res.DurationS = t + buffer // session ends when the buffer drains
	wall := float64(v.NumChunks)*v.ChunkS + res.StallS
	res.StallPct = res.StallS / wall * 100
	sc.oracleTr = nil // do not retain the trace beyond the call
	return res
}

// Aggregate averages results across traces (the per-algorithm points of
// Fig. 17).
type Aggregate struct {
	Algorithm    string
	NormBitrate  float64
	StallPct     float64
	MeanStallS   float64
	MeanQoE      float64
	MeanSwitches float64
}

// Evaluate runs algo over every trace, in trace order, and averages the
// metrics. One Scratch and the caller's algo serve every trace: Simulate
// resets algo before each playback, so a trace's result does not depend on
// the traces played before it.
//
// With collection on, every trace gets its own sub-collector, merged back
// in trace order and tagged with the trace index. The per-trace histogram
// partial sums are part of the artifact bytes: emitting straight into
// opt.Obs would add the same observations in a different float order.
func Evaluate(v Video, algo Algorithm, traces [][]float64, opt Options) Aggregate {
	agg := Aggregate{Algorithm: algo.Name()}
	if len(traces) == 0 {
		return agg
	}
	sc := &Scratch{}
	for i, tr := range traces {
		o := opt
		if opt.Obs.Enabled() {
			o.Obs = obs.Sub(opt.Obs)
			// A trace emits exactly one span per chunk: reserve them all
			// rather than doubling from empty.
			o.Obs.Trace().Grow(v.NumChunks, chunkSpanNums)
		}
		r := SimulateScratch(v, algo, tr, o, sc)
		opt.Obs.MergeTagged(o.Obs, obs.F("trace", float64(i)))
		agg.NormBitrate += r.NormBitrate
		agg.StallPct += r.StallPct
		agg.MeanStallS += r.StallS
		agg.MeanQoE += r.QoE
		agg.MeanSwitches += float64(r.Switches)
	}
	n := float64(len(traces))
	agg.NormBitrate /= n
	agg.StallPct /= n
	agg.MeanStallS /= n
	agg.MeanQoE /= n
	agg.MeanSwitches /= n
	return agg
}
