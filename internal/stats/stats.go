// Package stats implements the small statistical toolkit used throughout the
// measurement reproduction: order statistics, regression, error metrics, and
// distribution summaries.
//
// The paper reports 95th-percentile throughput for Speedtest runs, MAPE for
// power-model evaluation, linear fits (slopes) for throughput–power curves,
// harmonic means for ABR throughput prediction, and CDFs for page-load
// metrics (drawn as percentiles of one sorted sample: SortN, then
// PercentileSorted); each of those primitives lives here.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// HasNaN reports whether xs contains a NaN. Aggregation paths use it to
// fail loudly before a NaN corrupts an order statistic: sort.Float64s
// orders NaNs first, which silently shifts every rank, so a percentile
// over NaN-tainted data returns a plausible-looking wrong number.
func HasNaN(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice. A NaN
// input propagates to a NaN result (visible, never silently absorbed).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// HarmonicMean returns the harmonic mean of xs. Non-positive values are
// ignored (a zero sample would otherwise dominate the estimate); it returns 0
// if no positive samples exist. ABR throughput predictors use this form.
func HarmonicMean(xs []float64) float64 {
	n := 0
	s := 0.0
	for _, x := range xs {
		if x > 0 {
			s += 1 / x
			n++
		}
	}
	if n == 0 || s == 0 {
		return 0
	}
	return float64(n) / s
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice and
// NaN when xs contains a NaN (see PercentileSorted). It copies xs; callers
// extracting several percentiles from one sample should SortN once and use
// PercentileSorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return PercentileSorted(c, p)
}

// SortN sorts xs in place (ascending) and returns it, for use with
// PercentileSorted.
func SortN(xs []float64) []float64 {
	sort.Float64s(xs)
	return xs
}

// PercentileSorted is Percentile over an already-sorted slice: no copy, no
// sort. The slice must be ascending (e.g. via SortN). A NaN input returns
// NaN explicitly: sort.Float64s places NaNs first, so ranks over the
// remaining elements are all shifted and every percentile would silently
// be wrong — an explicit NaN surfaces in rendered tables as "NaN" instead.
// The check is O(1) because NaNs sort to position zero.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(sorted[0]) {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// MAPE returns the mean absolute percentage error (in percent, e.g. 5.2)
// between predictions and truth. Pairs whose true value is zero are skipped.
// It returns an error when the slices differ in length or no valid pair
// exists.
func MAPE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("stats: MAPE length mismatch: %d vs %d", len(pred), len(truth))
	}
	n := 0
	s := 0.0
	for i := range pred {
		if truth[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-truth[i]) / math.Abs(truth[i])
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("stats: MAPE has no nonzero truth samples")
	}
	return s / float64(n) * 100, nil
}

// LinearFit holds an ordinary-least-squares line y = Slope*x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine computes the least-squares fit of y onto x. It returns an error if
// fewer than two points are supplied or x is degenerate (all equal).
func FitLine(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: FitLine length mismatch: %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLine needs >= 2 points, got %d", len(x))
	}
	mx, my := Mean(x), Mean(y)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: FitLine x values are degenerate")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// Bucket is one bin of a histogram over a scalar feature.
type Bucket struct {
	Lo, Hi float64   // [Lo, Hi)
	Values []float64 // samples that fell in the bin
}

// Bin groups ys by their paired key in keys into fixed-width bins of width w
// starting at lo. Samples below lo or at/above hi are dropped. It is used for
// e.g. grouping energy-efficiency samples by RSRP range (Fig. 14). It returns
// an error when keys and ys differ in length (a silent truncation here once
// hid mispaired series) or when the bin geometry is degenerate.
func Bin(keys, ys []float64, lo, hi, w float64) ([]Bucket, error) {
	if len(keys) != len(ys) {
		return nil, fmt.Errorf("stats: Bin length mismatch: %d keys vs %d values", len(keys), len(ys))
	}
	if w <= 0 || hi <= lo {
		return nil, fmt.Errorf("stats: Bin degenerate geometry: lo=%g hi=%g w=%g", lo, hi, w)
	}
	n := int(math.Ceil((hi - lo) / w))
	out := make([]Bucket, n)
	for i := range out {
		out[i] = Bucket{Lo: lo + float64(i)*w, Hi: lo + float64(i+1)*w}
	}
	for i, k := range keys {
		if k < lo || k >= hi {
			continue
		}
		b := int((k - lo) / w)
		if b >= 0 && b < n {
			out[b].Values = append(out[b].Values, ys[i])
		}
	}
	return out, nil
}

// RelError returns pred/truth expressed as a percentage (the paper's
// "relative error = SW / HW" metric for the software power monitor). It
// returns 0 when truth is zero.
func RelError(pred, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	return pred / truth * 100
}

// SplitMix64 advances a stream of Steele et al.'s SplitMix64 one step and
// returns 64 uniform bits. Applied to a copy of a value it is the
// generator's finalizer: a bijective mix with full 64-bit avalanche, which
// derives independent stream states from seeds.
func SplitMix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	x := *s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
