package fleet

import (
	"fmt"
	"math"
	"sort"

	"fivegsim/internal/obs"
	"fivegsim/internal/stats"
)

// Stream mode replaces the campaign's O(UEs) results slice with O(shards)
// streaming state: each shard folds every finished session into a
// ShardStats as it finalizes, and the serial reduce merges the shard
// stats in shard order. Byte-identity across shard counts survives
// because every piece of merged state is order-invariant by construction:
//
//   - histogram buckets and session counters are integers (associative);
//   - metric sums accumulate in integer nano fixed point, converted to
//     float64 once after the merge, so no float addition ever happens in
//     a partition-dependent order;
//   - population quantiles come from bottom-k hash-priority sketches
//     (stats.Sketch) keyed by UE id — the kept sample is a property of
//     the population set, not of the shard layout or merge order;
//   - sampled per-session trace records carry their UE id, and a shard
//     collects them in UE id order, the order it runs its sessions in,
//     which also makes the stream-mode trace artifact byte-identical to
//     the exact-mode one (the sampled UEs and their UEResult values are
//     the same in both modes).

// DefaultSketchK is the per-metric sketch size when Config.SketchK is 0:
// large enough that campaigns up to a few thousand UEs keep every session
// (making stream quantiles exact), ~770 KiB of sketch state per campaign.
const DefaultSketchK = 2048

// Sketch-priority salts, folded as mixSeed(campaignSeed, 0, salt). They
// share the derivation rule of the per-UE streams but live in a disjoint
// salt range (per-UE streams use salts 0 and 1).
const (
	saltSketchTput = 16 + iota
	saltSketchQoE
	saltSketchEnergy
	saltSketchStall
)

// toNano converts a metric value to integer nanounits; fromNano converts
// a merged total back. Campaign metrics are O(1e3) per UE, so a million-UE
// campaign total stays ~1e18 nanounits, inside int64.
func toNano(v float64) int64   { return int64(math.Round(v * 1e9)) }
func fromNano(n int64) float64 { return float64(n) / 1e9 }

// histCounts is the integer shadow of an obs.Histogram: same bucket
// geometry and search rule, but the sum is kept in nanounits so shard
// merges are associative.
type histCounts struct {
	bounds  []float64
	counts  []uint64
	sumNano int64
	n       uint64
}

func newHistCounts(bounds []float64) histCounts {
	return histCounts{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histCounts) observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sumNano += toNano(v)
	h.n++
}

func (h *histCounts) merge(o *histCounts) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sumNano += o.sumNano
	h.n += o.n
}

// foldInto adds the integer state into the obs histogram, converting the
// nano sum exactly once.
func (h *histCounts) foldInto(dst *obs.Histogram) {
	for i, c := range h.counts {
		dst.Counts[i] += c
	}
	dst.Sum += fromNano(h.sumNano)
	dst.N += h.n
}

// sessionSample is one trace-sampled session, tagged with its UE id for
// the trace record.
type sessionSample struct {
	ue int
	u  UEResult
}

// ShardStats is the streaming reduction state of one shard (and, after
// merging, of the whole campaign). Its size is independent of the
// population: fixed histogram buckets, integer counters, four bounded
// sketches, and ~(512/shards) sampled sessions.
type ShardStats struct {
	tput   histCounts
	qoe    histCounts
	energy histCounts
	stall  histCounts

	chunks    int64
	nrChunks  int64
	stallNano int64
	ues       int64

	skTput   *stats.Sketch
	skQoE    *stats.Sketch
	skEnergy *stats.Sketch
	skStall  *stats.Sketch

	every   int // trace sampling stride; 0 disables sampling
	sampled []sessionSample
}

// newShardStats builds streaming state for one shard of the campaign
// described by cfg (which must already have defaults applied).
func newShardStats(cfg Config) *ShardStats {
	k := cfg.SketchK
	st := &ShardStats{
		tput:     newHistCounts(tputBounds),
		qoe:      newHistCounts(qoeBounds),
		energy:   newHistCounts(energyBounds),
		stall:    newHistCounts(stallBounds),
		skTput:   stats.NewSketch(k, mixSeed(cfg.Seed, 0, saltSketchTput)),
		skQoE:    stats.NewSketch(k, mixSeed(cfg.Seed, 0, saltSketchQoE)),
		skEnergy: stats.NewSketch(k, mixSeed(cfg.Seed, 0, saltSketchEnergy)),
		skStall:  stats.NewSketch(k, mixSeed(cfg.Seed, 0, saltSketchStall)),
	}
	if cfg.Obs.Enabled() || cfg.Spill != nil {
		st.every = cfg.TraceEvery
	}
	return st
}

// observe folds one finished session in. Called by the owning shard only,
// from finalize, so it needs no locking.
func (st *ShardStats) observe(ue int, u UEResult) {
	st.tput.observe(u.MeanMbps)
	st.qoe.observe(u.QoE)
	st.energy.observe(u.EnergyJ)
	st.stall.observe(u.StallS)
	st.chunks += int64(u.Chunks)
	st.nrChunks += int64(u.NRChunks)
	st.stallNano += toNano(u.StallS)
	st.ues++
	st.skTput.Observe(uint64(ue), u.MeanMbps)
	st.skQoE.Observe(uint64(ue), u.QoE)
	st.skEnergy.Observe(uint64(ue), u.EnergyJ)
	st.skStall.Observe(uint64(ue), u.StallS)
	if st.every > 0 && ue%st.every == 0 {
		st.sampled = append(st.sampled, sessionSample{ue: ue, u: u})
	}
}

// merge folds another shard's stats in. Merge order cannot change the
// result: every component is either integer arithmetic or a set-semantics
// sketch. The sampled sessions stay with their shard: Run hands each
// shard's list to the trace sink before the merge.
func (st *ShardStats) merge(o *ShardStats) error {
	st.tput.merge(&o.tput)
	st.qoe.merge(&o.qoe)
	st.energy.merge(&o.energy)
	st.stall.merge(&o.stall)
	st.chunks += o.chunks
	st.nrChunks += o.nrChunks
	st.stallNano += o.stallNano
	st.ues += o.ues
	for _, m := range []struct{ dst, src *stats.Sketch }{
		{st.skTput, o.skTput}, {st.skQoE, o.skQoE},
		{st.skEnergy, o.skEnergy}, {st.skStall, o.skStall},
	} {
		if err := m.dst.Merge(m.src); err != nil {
			return fmt.Errorf("fleet: shard stats merge: %w", err)
		}
	}
	return nil
}

// MetricSummary is one population metric reduced in stream mode: exact
// count and mean (integer-accumulated), sketch-estimated percentiles.
type MetricSummary struct {
	Name                   string
	N                      uint64
	Mean                   float64
	P5, P25, P50, P75, P95 float64
}

func summarize(name string, h *histCounts, sk *stats.Sketch) MetricSummary {
	s := MetricSummary{Name: name, N: h.n}
	if h.n > 0 {
		s.Mean = fromNano(h.sumNano) / float64(h.n)
	}
	vals := sk.Values()
	s.P5 = stats.PercentileSorted(vals, 5)
	s.P25 = stats.PercentileSorted(vals, 25)
	s.P50 = stats.PercentileSorted(vals, 50)
	s.P75 = stats.PercentileSorted(vals, 75)
	s.P95 = stats.PercentileSorted(vals, 95)
	return s
}

// Summaries renders the campaign's population metrics, in fixed order.
func (st *ShardStats) Summaries() []MetricSummary {
	return []MetricSummary{
		summarize("tput_mbps", &st.tput, st.skTput),
		summarize("qoe", &st.qoe, st.skQoE),
		summarize("energy_j", &st.energy, st.skEnergy),
		summarize("stall_s", &st.stall, st.skStall),
	}
}

// NRShare returns the fraction of chunks served over an NR layer, the
// stream-mode counterpart of Result.NRShare.
func (st *ShardStats) NRShare() float64 {
	if st.chunks == 0 {
		return 0
	}
	return float64(st.nrChunks) / float64(st.chunks)
}

// UEs returns the number of sessions folded in.
func (st *ShardStats) UEs() int64 { return st.ues }

// streamReduce folds the merged campaign stats into the obs collector,
// producing the same artifact bytes at every shard count. Histogram bucket
// counts and integer counters also match exact mode; histogram sums and
// fleet.stall_s_total may differ from exact mode in the last few ulps
// (fixed-point vs ordered float accumulation), while remaining
// shard-count-invariant within stream mode.
func streamReduce(cfg Config, res *Result) {
	if !cfg.Obs.Enabled() {
		return
	}
	st := res.Stream
	m := cfg.Obs.Meter()
	st.tput.foldInto(m.Hist("fleet.tput_mbps", tputBounds))
	st.qoe.foldInto(m.Hist("fleet.qoe", qoeBounds))
	st.energy.foldInto(m.Hist("fleet.energy_j", energyBounds))
	st.stall.foldInto(m.Hist("fleet.stall_s", stallBounds))
	m.Add("fleet.chunks", float64(st.chunks))
	m.Add("fleet.nr_chunks", float64(st.nrChunks))
	m.Add("fleet.stall_s_total", fromNano(st.stallNano))
	m.Add("fleet.ues", float64(st.ues))
}
