package abr

import (
	"math"

	"fivegsim/internal/dtree"
	"fivegsim/internal/stats"
)

// Predictor estimates the throughput available for the next chunk from the
// history of chunk-level throughputs. Implementations: harmonic mean (the
// fastMPC default), a Lumos5G-style GBDT, and the ground-truth oracle.
type Predictor interface {
	Name() string
	Predict(ctx *Context) float64
}

// HarmonicPredictor is the classic hmMPC estimator: the harmonic mean of
// the last hmWindow chunk throughputs.
type HarmonicPredictor struct{}

// hmWindow is the chunk-throughput history of the harmonic-mean estimators
// (HarmonicPredictor and RB).
const hmWindow = 5

// Name implements Predictor.
func (h *HarmonicPredictor) Name() string { return "hm" }

// Predict implements Predictor.
//
//fgvet:noalloc
func (h *HarmonicPredictor) Predict(ctx *Context) float64 {
	past := ctx.PastChunkMbps
	if len(past) == 0 {
		return ctx.Video.BitratesMbps[0]
	}
	if len(past) > hmWindow {
		past = past[len(past)-hmWindow:]
	}
	return stats.HarmonicMean(past)
}

// OraclePredictor returns the true mean bandwidth over the next chunk
// duration — the truthMPC upper bound of Fig. 18a.
type OraclePredictor struct{}

// Name implements Predictor.
func (o *OraclePredictor) Name() string { return "truth" }

// Predict implements Predictor.
func (o *OraclePredictor) Predict(ctx *Context) float64 {
	if ctx.Oracle == nil {
		return ctx.Video.BitratesMbps[0]
	}
	// Look ahead roughly one chunk download.
	return ctx.Oracle(ctx.Video.ChunkS)
}

// GBDTPredictor is the MPC_GDBT predictor of §5.3 (after Lumos5G): a
// gradient-boosted tree over the recent throughput history, trained offline
// on mmWave traces.
type GBDTPredictor struct {
	model *dtree.GBDT
	// Lags is the feature window; set at training time.
	Lags int

	ema float64   // per-session smoothed estimate
	x   []float64 // reusable feature buffer
}

// Reset clears per-session smoothing state (called via MPC.Reset).
func (g *GBDTPredictor) Reset() { g.ema = 0 }

// Name implements Predictor.
func (g *GBDTPredictor) Name() string { return "gbdt" }

// gbdtFeatures assembles the lag vector (most recent last) into dst,
// padding the left edge with the oldest known value. dst is grown only when
// its capacity is short, so a per-predictor buffer makes Predict
// allocation-free.
func gbdtFeatures(dst []float64, past []float64, lags int, fallback float64) []float64 {
	x := dst
	if cap(x) < lags {
		x = make([]float64, lags)
	}
	x = x[:lags]
	for i := 0; i < lags; i++ {
		idx := len(past) - lags + i
		switch {
		case idx >= 0:
			x[i] = past[idx]
		case len(past) > 0:
			x[i] = past[0]
		default:
			x[i] = fallback
		}
	}
	return x
}

// Predict implements Predictor. The tree forecast (a dip-sensitive floor
// estimate) is combined with the harmonic mean: the harmonic mean caps the
// estimate in steady conditions (keeping decisions smooth), while the tree
// pulls it down ahead of dips it recognises from the recent trend.
func (g *GBDTPredictor) Predict(ctx *Context) float64 {
	hm := (&HarmonicPredictor{}).Predict(ctx)
	if g.model == nil {
		return hm
	}
	g.x = gbdtFeatures(g.x, ctx.PastChunkMbps, g.Lags, ctx.Video.BitratesMbps[0])
	x := g.x
	// The floor forecast is debiased upward for steady conditions (where
	// min ~= mean - 0.8 sd) and capped by the harmonic mean.
	p := g.model.Predict(x) * 1.45
	if p > hm {
		p = hm
	}
	if p < 0.1 {
		p = 0.1
	}
	// Exponential smoothing damps per-chunk forecast noise (which would
	// otherwise churn MPC's decisions) while still responding to a dip
	// within a chunk.
	if g.ema == 0 {
		g.ema = p
	} else {
		g.ema = 0.5*g.ema + 0.5*p
	}
	if p < g.ema {
		return p // react to drops immediately, smooth only recoveries
	}
	return g.ema
}

// TrainGBDTPredictor fits the GBDT on throughput traces aggregated to the
// observation granularity of the ABR client (aggS seconds, the chunk
// length): every position of every aggregated trace becomes a
// (lagged window -> next interval) sample.
func TrainGBDTPredictor(traces [][]float64, lags, aggS int) (*GBDTPredictor, error) {
	if lags <= 0 {
		lags = 8
	}
	if aggS <= 0 {
		aggS = 1
	}
	var X [][]float64
	var y []float64
	for _, tr := range traces {
		agg := aggregate(tr, aggS, stats.Mean)
		low := aggregate(tr, aggS, stats.Min)
		for t := lags; t < len(agg); t++ {
			X = append(X, append([]float64(nil), agg[t-lags:t]...))
			// Predict the *floor* of the next interval, not its mean:
			// stalls are caused by throughput minima, and a predictor
			// that anticipates dips is what lets MPC back off in time.
			y = append(y, low[t])
		}
	}
	m, err := dtree.TrainGBDT(X, y, dtree.GBDTOptions{
		Trees: 60, LearningRate: 0.15,
		Tree: dtree.Options{MaxDepth: 4, MinLeaf: 20},
	})
	if err != nil {
		return nil, err
	}
	return &GBDTPredictor{model: m, Lags: lags}, nil
}

// aggregate reduces a per-second trace to f (stats.Mean or stats.Min) of
// each whole w-second window.
func aggregate(tr []float64, w int, f func([]float64) float64) []float64 {
	if w <= 1 {
		return tr
	}
	out := make([]float64, 0, len(tr)/w)
	for i := 0; i+w <= len(tr); i += w {
		out = append(out, f(tr[i:i+w]))
	}
	return out
}

// MPC implements FastMPC/RobustMPC (Yin et al., SIGCOMM'15): it enumerates
// all track sequences over a short horizon, simulates the buffer evolution
// under the predicted throughput, and picks the first step of the sequence
// maximising the linear QoE.
type MPC struct {
	// Label distinguishes fastMPC/robustMPC in outputs.
	Label string
	// Pred supplies throughput estimates; nil defaults to harmonic mean.
	Pred Predictor
	// Robust applies RobustMPC's error discount: the prediction is divided
	// by (1 + max recent prediction error).
	Robust bool

	// Recent relative prediction errors (Robust), a fixed ring: only the
	// max over the window is consumed, so order is irrelevant.
	predErrs [predErrWindow]float64
	nPredErr int
	errHead  int
	lastPred float64

	// Persistent branch-and-bound scratch (grown once, reused per Select).
	stack    []mpcNode
	children []mpcNode
	dlq      []float64
}

// predErrWindow is RobustMPC's error-history length.
const predErrWindow = 5

// mpcHorizon is MPC's lookahead in chunks, cut to the chunks remaining.
const mpcHorizon = 5

// mpcBoundSlack is the relative margin Select adds to its climb bound so
// that floating-point path sums can never exceed it.
const mpcBoundSlack = 1e-9

// mpcNode is one partial track sequence in the branch-and-bound frontier.
type mpcNode struct {
	step   int32
	first  int32 // track chosen at step 0 on this branch (-1 at the root)
	last   int32 // track of the previous step (LastQuality at the root)
	buffer float64
	qoe    float64
}

// Name implements Algorithm.
func (m *MPC) Name() string {
	if m.Label != "" {
		return m.Label
	}
	if m.Robust {
		return "robustMPC"
	}
	return "fastMPC"
}

// Reset implements Algorithm.
func (m *MPC) Reset() {
	m.nPredErr = 0
	m.errHead = 0
	m.lastPred = 0
	if r, ok := m.Pred.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// Select implements Algorithm.
//
//fgvet:noalloc
func (m *MPC) Select(ctx *Context) int {
	h := mpcHorizon
	if left := ctx.Video.NumChunks - ctx.ChunkIndex; h > left {
		h = left
	}
	pred := m.predictor().Predict(ctx)
	// Track prediction error against the realised chunk throughput.
	if m.lastPred > 0 && len(ctx.PastChunkMbps) > 0 {
		actual := ctx.PastChunkMbps[len(ctx.PastChunkMbps)-1]
		if actual > 0 {
			err := math.Abs(m.lastPred-actual) / actual
			m.predErrs[m.errHead] = err
			m.errHead = (m.errHead + 1) % predErrWindow
			if m.nPredErr < predErrWindow {
				m.nPredErr++
			}
		}
	}
	m.lastPred = pred
	if m.Robust {
		// RobustMPC discounts by the recent prediction error; the error is
		// clamped so a single wild mmWave swing does not zero the estimate.
		e := 0.0
		for i := 0; i < m.nPredErr; i++ {
			if m.predErrs[i] > e {
				e = m.predErrs[i]
			}
		}
		if e > 1 {
			e = 1
		}
		pred /= 1 + e
	}
	if pred <= 0 {
		pred = 0.1
	}

	// The search scores sequences with the player's QoE weights: stalls
	// cost the top bitrate per second, switches their bitrate change.
	v := ctx.Video
	top := v.Top()
	rebuf := top

	bestFirst, bestQoE := 0, math.Inf(-1)
	tracks := v.Tracks()
	if cap(m.dlq) < tracks {
		//fgvet:allow noalloc one-time lazy growth, guarded by capacity; steady-state Selects reuse the scratch
		m.dlq = make([]float64, tracks)
		//fgvet:allow noalloc one-time lazy growth, guarded by capacity; steady-state Selects reuse the scratch
		m.children = make([]mpcNode, 0, tracks)
	}
	dlq := m.dlq[:tracks]
	for q := 0; q < tracks; q++ {
		dlq[q] = v.ChunkMb(q) / pred
	}
	// Iterative best-first branch-and-bound over a persistent stack: a
	// node's children are expanded together, ordered by their partial QoE
	// so the most promising branch is explored first. Reaching a good
	// incumbent early tightens the admissible bound and prunes most of the
	// tracks^h enumeration.
	//
	// A child is tested against the incumbent when it is made, and a leaf
	// child is scored then, so most children are never pushed. The test is
	// repeated at pop because the incumbent may have improved since the
	// push. Pruning at push returns the same track as pruning only at pop:
	// the incumbent's QoE only rises, and at equal QoE its first track only
	// falls, so a child that fails the test at push fails it at pop too;
	// and a leaf scored early raises the incumbent to the same maximum
	// (highest QoE, then lowest first track) as when scored after a pop.
	firstChunk := ctx.ChunkIndex == 0
	stack := m.stack[:0]
	stack = append(stack, mpcNode{step: 0, first: -1, last: int32(ctx.LastQuality), buffer: ctx.BufferS})
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		steps := h - int(n.step)
		bound := mpcBound(n.qoe, steps, top, v.BitratesMbps, n.last, n.step == 0 && firstChunk)
		if pruned(bound, n.first, bestQoE, bestFirst) {
			continue
		}
		if steps == 0 {
			// Only a horizon of 0 (no chunk left) pushes a leaf, the root;
			// every other leaf is scored as it is made, below.
			bestQoE, bestFirst = n.qoe, int(n.first)
			continue
		}
		children := m.children[:0]
		for q := 0; q < tracks; q++ {
			dl := dlq[q]
			stall := 0.0
			b := n.buffer
			if dl > b {
				stall = dl - b
				b = 0
			} else {
				b -= dl
			}
			b += v.ChunkS
			stepQoE := v.BitratesMbps[q] - rebuf*stall
			if !(n.step == 0 && firstChunk) {
				stepQoE -= math.Abs(v.BitratesMbps[q] - v.BitratesMbps[int(n.last)])
			}
			c := mpcNode{step: n.step + 1, first: n.first, last: int32(q),
				buffer: b, qoe: n.qoe + stepQoE}
			if n.step == 0 {
				c.first = int32(q)
			}
			if pruned(mpcBound(c.qoe, steps-1, top, v.BitratesMbps, c.last, false), c.first, bestQoE, bestFirst) {
				continue
			}
			if steps == 1 {
				// A leaf's bound is its QoE, so passing the test is what
				// makes it the incumbent.
				bestQoE, bestFirst = c.qoe, int(c.first)
				continue
			}
			children = append(children, c)
		}
		// Push in ascending-QoE order (insertion sort) so the best child
		// pops first; on exact QoE ties the lower track pops first,
		// matching the left-to-right preference of a plain DFS.
		for i := 1; i < len(children); i++ {
			c := children[i]
			j := i - 1
			for j >= 0 && (children[j].qoe > c.qoe ||
				(children[j].qoe == c.qoe && children[j].last < c.last)) {
				children[j+1] = children[j]
				j--
			}
			children[j+1] = c
		}
		stack = append(stack, children...)
		m.children = children[:0]
	}
	m.stack = stack[:0]
	return bestFirst
}

// mpcBound is an optimistic bound on the QoE of every completion of a
// node that scores qoe so far, has steps steps left and chose track last,
// on a ladder of the given rates topped by top. Stalls only subtract, and
// no step earns more than the top bitrate, which bounds a node whose next
// step pays no switch cost (noSwitch: the root of chunk 0). Elsewhere the
// next step pays the switch from last, and b[q] - |b[q] - b[last]| <=
// b[last] for every track q, so every completion scores at most
// (steps-1)*Top + b[last] over qoe: the climb bound, tighter whenever last
// is below the top.
func mpcBound(qoe float64, steps int, top float64, rates []float64, last int32, noSwitch bool) float64 {
	if steps == 0 || noSwitch {
		return qoe + float64(float64(steps)*top)
	}
	// Path sums round: a completion's computed QoE rounds five times per
	// step (stall penalty, switch difference, two subtractions, running
	// sum), each within 2^-53 of a magnitude at most scale (a bigger stall
	// penalty only sinks the path further), and the bound rounds four more
	// times. That is under 30*2^-53 (4e-15) of scale; mpcBoundSlack covers
	// it 10^5 times over, so no computed completion exceeds the bound.
	climb := float64(float64(steps-1)*top) + rates[last]
	scale := math.Abs(qoe) + float64(float64(steps)*top)
	return qoe + climb + float64(mpcBoundSlack*scale)
}

// pruned reports whether a node whose completions score at most bound and
// whose first track is first cannot beat the incumbent. On an exact QoE
// tie the search must return the lowest first-chunk track (the old
// recursive DFS enumerated sequences lexicographically with strict
// improvement, so among maximisers the minimal seq[0] won); a subtree
// whose bound only ties the incumbent can still matter, but only if its
// first chunk is lower than the incumbent's.
func pruned(bound float64, first int32, bestQoE float64, bestFirst int) bool {
	return bound < bestQoE || bound == bestQoE && int(first) >= bestFirst
}

// defaultHarmonic is the shared fallback predictor: HarmonicPredictor is
// stateless, so one instance serves every MPC.
var defaultHarmonic = &HarmonicPredictor{}

func (m *MPC) predictor() Predictor {
	if m.Pred != nil {
		return m.Pred
	}
	return defaultHarmonic
}
