package stats

import (
	"math"
	"testing"
)

// sketchPopulation synthesizes a deterministic population of (key, value)
// observations with a known uniform value distribution on [0, 1).
func sketchPopulation(n int) ([]uint64, []float64) {
	keys := make([]uint64, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = float64(splitmix64(uint64(i)^0xabcd)>>11) / (1 << 53)
	}
	return keys, vals
}

// TestSketchMergeOrderInvariance: however the population is partitioned
// and in whatever order the partial sketches merge, the kept sample is
// identical — the property that makes shard-count and merge-order
// invisible in fleet campaign output.
func TestSketchMergeOrderInvariance(t *testing.T) {
	const n, k, seed = 20000, 512, 0x5eed
	keys, vals := sketchPopulation(n)

	serial := NewSketch(k, seed)
	for i := range keys {
		serial.Observe(keys[i], vals[i])
	}
	want := serial.Values()

	for _, parts := range []int{2, 4, 7, 64} {
		shards := make([]*Sketch, parts)
		for p := range shards {
			shards[p] = NewSketch(k, seed)
		}
		// Contiguous ranges, like fleet shard partitioning.
		for i := range keys {
			shards[i*parts/n].Observe(keys[i], vals[i])
		}
		// Merge forward into one sketch and backward into another.
		fwd, bwd := NewSketch(k, seed), NewSketch(k, seed)
		for p := 0; p < parts; p++ {
			if err := fwd.Merge(shards[p]); err != nil {
				t.Fatal(err)
			}
			if err := bwd.Merge(shards[parts-1-p]); err != nil {
				t.Fatal(err)
			}
		}
		for _, got := range [][]float64{fwd.Values(), bwd.Values()} {
			if len(got) != len(want) {
				t.Fatalf("parts=%d: kept %d, want %d", parts, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("parts=%d: sample[%d] = %g, want %g", parts, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSketchQuantileAccuracy: on a uniform population the bottom-k sample
// estimates quantiles to within a few points at k=1024.
func TestSketchQuantileAccuracy(t *testing.T) {
	const n, k = 100000, 1024
	keys, vals := sketchPopulation(n)
	s := NewSketch(k, 7)
	for i := range keys {
		s.Observe(keys[i], vals[i])
	}
	for _, p := range []float64{5, 25, 50, 75, 95} {
		got := PercentileSorted(s.Values(), p)
		if math.Abs(got-p/100) > 0.04 {
			t.Errorf("percentile %g = %g, want ~%g", p, got, p/100)
		}
	}
}

// TestSketchBounded: the kept sample never exceeds k, whatever the
// population size, and k is clamped to at least 1.
func TestSketchBounded(t *testing.T) {
	s := NewSketch(16, 1)
	for i := 0; i < 10000; i++ {
		s.Observe(uint64(i), float64(i))
	}
	if len(s.vals) != 16 {
		t.Fatalf("kept %d observations, want 16", len(s.vals))
	}
	if got := NewSketch(-3, 1).k; got != 1 {
		t.Fatalf("k after NewSketch(-3) = %d, want 1", got)
	}
}

// TestSketchMergeMismatch: merging sketches with different geometry or
// seeds is an error, not a silently wrong sample.
func TestSketchMergeMismatch(t *testing.T) {
	if err := NewSketch(8, 1).Merge(NewSketch(9, 1)); err == nil {
		t.Fatal("k mismatch merged silently")
	}
	if err := NewSketch(8, 1).Merge(NewSketch(8, 2)); err == nil {
		t.Fatal("seed mismatch merged silently")
	}
}

// TestSketchEmpty: quantiles of an empty sketch are 0, matching the
// Percentile convention for empty slices.
func TestSketchEmpty(t *testing.T) {
	if got := PercentileSorted(NewSketch(8, 1).Values(), 50); got != 0 {
		t.Fatalf("median of an empty sketch = %g, want 0", got)
	}
}
