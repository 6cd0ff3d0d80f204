package stats

import (
	"fmt"
	"sort"
)

// Sketch is a bounded-memory quantile estimator whose kept sample is
// invariant to how the population was partitioned and in which order the
// partitions were merged. It implements bottom-k sampling by hash
// priority: every observation carries a stable uint64 key (for the fleet,
// the UE id), the key is hashed with the sketch seed into a uniform
// priority, and the sketch retains the k observations with the smallest
// (priority, key) pairs. That kept set is a property of the observation
// SET alone — a shard that observed its local UEs and a serial run that
// observed everyone converge on identical samples, whatever the shard
// count or merge order — which is what lets fleet campaigns report
// population percentiles from O(shards) memory without breaking the
// byte-identity contract.
//
// Contract: each key must be observed at most once across the merged
// population (fleet UEs appear in exactly one shard, so this holds by
// construction). Re-observing a key can double-count it, because the
// sketch stores a sample, not a map.
type Sketch struct {
	k    int
	seed uint64

	// A max-heap ordered by (pri, key), so the entry to evict — the
	// largest — is at the root. The kept set is the k smallest.
	pris []uint64
	keys []uint64
	vals []float64
}

// sketchPri hashes (seed, key) into a uniform priority. The double
// splitmix64 fold mirrors the fleet layer's seed-derivation rule: the
// seed is avalanched before the key is folded in, so adjacent keys (and
// adjacent seeds) land in unrelated priorities.
func sketchPri(seed, key uint64) uint64 {
	return splitmix64(splitmix64(seed) ^ key)
}

// splitmix64 is the finalizer of Steele et al.'s SplitMix64 (a local copy
// of the fleet layer's; stats sits below fleet in the import graph).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewSketch returns a sketch keeping at most k observations (minimum 1).
// Sketches merge only with sketches built from the same k and seed.
func NewSketch(k int, seed uint64) *Sketch {
	if k < 1 {
		k = 1
	}
	return &Sketch{k: k, seed: seed}
}

// Observe folds in one (key, value) observation.
func (s *Sketch) Observe(key uint64, v float64) {
	s.insert(sketchPri(s.seed, key), key, v)
}

// before reports whether entry (p1, k1) outranks (p2, k2) — i.e. sorts
// strictly earlier in the bottom-k order. Keys break priority ties so the
// order is total over distinct keys.
func before(p1, k1, p2, k2 uint64) bool {
	return p1 < p2 || (p1 == p2 && k1 < k2)
}

func (s *Sketch) insert(pri, key uint64, v float64) {
	if len(s.vals) < s.k {
		s.pris = append(s.pris, pri)
		s.keys = append(s.keys, key)
		s.vals = append(s.vals, v)
		s.siftUp(len(s.vals) - 1)
		return
	}
	// Full: keep only if it outranks the current worst (the root).
	if !before(pri, key, s.pris[0], s.keys[0]) {
		return
	}
	s.pris[0], s.keys[0], s.vals[0] = pri, key, v
	s.siftDown(0)
}

func (s *Sketch) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(s.pris[p], s.keys[p], s.pris[i], s.keys[i]) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *Sketch) siftDown(i int) {
	n := len(s.vals)
	for {
		l, r := 2*i+1, 2*i+2
		hi := i
		if l < n && before(s.pris[hi], s.keys[hi], s.pris[l], s.keys[l]) {
			hi = l
		}
		if r < n && before(s.pris[hi], s.keys[hi], s.pris[r], s.keys[r]) {
			hi = r
		}
		if hi == i {
			return
		}
		s.swap(i, hi)
		i = hi
	}
}

func (s *Sketch) swap(i, j int) {
	s.pris[i], s.pris[j] = s.pris[j], s.pris[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// Merge folds every observation kept by o into s. Priorities are reused,
// not recomputed, so the two sketches must share k and seed.
func (s *Sketch) Merge(o *Sketch) error {
	if o.k != s.k || o.seed != s.seed {
		return fmt.Errorf("stats: Sketch.Merge mismatch: k=%d/%d seed=%#x/%#x", s.k, o.k, s.seed, o.seed)
	}
	for i := range o.vals {
		s.insert(o.pris[i], o.keys[i], o.vals[i])
	}
	return nil
}

// Values returns the kept observation values, sorted ascending.
// PercentileSorted over them estimates the observed population's
// percentiles (0 for an empty sketch).
func (s *Sketch) Values() []float64 {
	c := append([]float64(nil), s.vals...)
	sort.Float64s(c)
	return c
}
