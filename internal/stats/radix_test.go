package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// radixValue draws one value from a mix that reaches every key byte and
// sign: ±Inf, ±0 (one sign per slice), subnormals, negatives, values
// across the exponent range, and repeats of earlier values.
func radixValue(rng *rand.Rand, prev []float64, zero float64) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.Inf(1 - 2*rng.Intn(2))
	case 1:
		return zero
	case 2:
		return math.Float64frombits(rng.Uint64()&(1<<52-1)) * float64(1-2*rng.Intn(2)) // subnormal
	case 3:
		if len(prev) > 0 {
			return prev[rng.Intn(len(prev))]
		}
	case 4:
		return rng.NormFloat64() * math.Ldexp(1, rng.Intn(200)-100)
	case 5:
		if v := rng.Intn(20) - 10; v != 0 {
			return float64(v) // small integers, many duplicates
		}
		return zero
	}
	return rng.Float64() * 1000
}

// sameBits reports whether two slices hold the same float64 bits, index by
// index, and the first index where they differ.
func sameBits(a, b []float64) (bool, int) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false, i
		}
	}
	return len(a) == len(b), len(a)
}

// TestRadixSortMatchesSortFloat64s holds RadixSorter.Sort to the bits of
// sort.Float64s on random slices at lengths around radixMin and well above
// it, with one sorter reused across all of them (its buffers shrink and
// grow between calls). Each slice has zeros of one sign only.
func TestRadixSortMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s RadixSorter
	sizes := []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 3 * radixMin, 20000, 100}
	for trial := 0; trial < 40; trial++ {
		for _, n := range sizes {
			zero := 0.0
			if trial%2 == 1 {
				zero = math.Copysign(0, -1)
			}
			xs := make([]float64, 0, n)
			for len(xs) < n {
				xs = append(xs, radixValue(rng, xs, zero))
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			s.Sort(xs)
			if ok, i := sameBits(xs, want); !ok {
				t.Fatalf("trial %d, n=%d: index %d is %v, sort.Float64s gives %v", trial, n, i, xs[i], want[i])
			}
		}
	}
}

// TestRadixSortFallback: a NaN, or zeros of both signs, leave an order that
// depends on sort.Float64s's algorithm, so Sort must hand the slice to it.
// Each input is built so that a plain radix sort would give different bits:
// the radix order puts a NaN with a clear sign bit last and every -0 before
// every +0, while sort.Float64s puts NaNs first and, here, a +0 before a -0.
func TestRadixSortFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	negZero := math.Copysign(0, -1)
	const n = 4 * radixMin
	nan := make([]float64, n)
	zeros := make([]float64, n)
	for i := range nan {
		nan[i] = rng.NormFloat64()
		zeros[i] = rng.NormFloat64()
		if i%7 == 0 {
			nan[i] = math.NaN()
		}
		if i%5 == 0 {
			zeros[i] = 0
			if i%2 == 0 {
				zeros[i] = negZero
			}
		}
	}
	var s RadixSorter
	for _, tc := range []struct {
		name string
		xs   []float64
	}{{"NaN", nan}, {"signed zeros", zeros}} {
		want := append([]float64(nil), tc.xs...)
		sort.Float64s(want)
		if tc.name == "signed zeros" && !posZeroBeforeNegZero(want) {
			t.Fatalf("input does not discriminate: sort.Float64s put every -0 before every +0")
		}
		got := append([]float64(nil), tc.xs...)
		s.Sort(got)
		if ok, i := sameBits(got, want); !ok {
			t.Errorf("%s: index %d is %v (bits %#x), sort.Float64s gives %v (bits %#x)",
				tc.name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// posZeroBeforeNegZero reports whether xs holds a +0 before a -0.
func posZeroBeforeNegZero(xs []float64) bool {
	seenPos := false
	for _, x := range xs {
		if x == 0 {
			if !math.Signbit(x) {
				seenPos = true
			} else if seenPos {
				return true
			}
		}
	}
	return false
}

// TestRadixSortReusesBuffers: once a sorter has sorted a slice of length n,
// sorting another of length at most n allocates nothing.
func TestRadixSortReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 4*radixMin)
	fill := func() {
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
	}
	var s RadixSorter
	fill()
	s.Sort(xs)
	if avg := testing.AllocsPerRun(10, func() { fill(); s.Sort(xs) }); avg != 0 {
		t.Errorf("a reused sorter allocates %.1f objects per Sort, want 0", avg)
	}
}
