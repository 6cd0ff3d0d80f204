package fleet

import (
	"fmt"
	"math"
	"sort"

	"fivegsim/internal/obs"
	"fivegsim/internal/stats"
)

// Stream mode replaces the campaign's O(UEs) results slice with O(shards)
// streaming state: each shard folds every finished session into its
// streamStats as it finalizes, and Run merges the shard stats in shard
// order. Byte-identity across shard counts survives because every piece of
// merged state is order-invariant by construction:
//
//   - histogram buckets are integers (associative), and so are the session
//     counters every shard keeps in both modes;
//   - metric sums accumulate in integer nano fixed point, converted to
//     float64 once after the merge, so no float addition ever happens in
//     a partition-dependent order;
//   - population quantiles come from bottom-k hash-priority sketches
//     (stats.Sketch) keyed by UE id — the kept sample is a property of
//     the population set, not of the shard layout or merge order.
//
// The sampled per-session trace records are the same in both modes (see
// shard.finalize), so the stream-mode trace artifact is byte-identical to
// the exact-mode one.

// DefaultSketchK is the per-metric sketch size when Config.SketchK is 0:
// large enough that campaigns up to a few thousand UEs keep every session
// (making stream quantiles exact), ~770 KiB of sketch state per campaign.
const DefaultSketchK = 2048

// sketchSalt is metric 0's sketch-priority salt; metric i's is
// sketchSalt+i, folded as mixSeed(campaignSeed, 0, salt). The salts share
// the derivation rule of the per-UE streams but live in a disjoint range
// (per-UE streams use salts 0 and 1).
const sketchSalt = 16

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

// streamStats is the streaming reduction state of one shard (and, after
// merging, of the whole campaign): per population metric, an integer
// histogram and a bounded sketch. Its size is independent of the
// population.
type streamStats struct {
	hists    [NumMetrics]histCounts
	sketches [NumMetrics]*stats.Sketch
}

// newStreamStats builds streaming state for one shard of the campaign
// described by cfg (which must already have defaults applied).
func newStreamStats(cfg Config) *streamStats {
	st := &streamStats{}
	for i := range st.hists {
		st.hists[i] = newHistCounts(metrics[i].bounds)
		st.sketches[i] = stats.NewSketch(cfg.SketchK, mixSeed(cfg.Seed, 0, uint64(sketchSalt+i)))
	}
	return st
}

// observe folds one finished session in. Called by the owning shard only,
// from finalize, so it needs no locking.
func (st *streamStats) observe(ue int, u *UEResult) {
	for i := range st.hists {
		v := u.metric(i)
		st.hists[i].observe(v)
		st.sketches[i].Observe(uint64(ue), v)
	}
}

// merge folds another shard's stats in. Merge order cannot change the
// result: every component is either integer arithmetic or a set-semantics
// sketch.
func (st *streamStats) merge(o *streamStats) error {
	for i := range st.hists {
		st.hists[i].merge(&o.hists[i])
		if err := st.sketches[i].Merge(o.sketches[i]); err != nil {
			return fmt.Errorf("fleet: shard stats merge: %w", err)
		}
	}
	return nil
}
