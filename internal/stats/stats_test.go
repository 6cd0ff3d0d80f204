package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of singleton != 0")
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 4, 4}); !almostEq(got, 2, 1e-12) {
		t.Errorf("HarmonicMean = %v, want 2", got)
	}
	// Zeros are skipped rather than collapsing the estimate.
	if got := HarmonicMean([]float64{0, 1, 4, 4}); !almostEq(got, 2, 1e-12) {
		t.Errorf("HarmonicMean with zero = %v, want 2", got)
	}
	if HarmonicMean([]float64{0, -1}) != 0 {
		t.Error("HarmonicMean of nonpositive != 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(xs, 90); !almostEq(got, 46, 1e-12) {
		t.Errorf("Percentile(90) = %v, want 46", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{7, -2, 9, 4}
	if Min(xs) != -2 || Max(xs) != 9 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if got := Median([]float64{1, 3, 2}); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("Min/Max of empty != 0")
	}
}

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 10, 1e-12) {
		t.Errorf("MAPE = %v, want 10", got)
	}
	// Zero-truth pairs are skipped.
	got, err = MAPE([]float64{5, 110}, []float64{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 10, 1e-12) {
		t.Errorf("MAPE skipping zero = %v, want 10", got)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("MAPE length mismatch did not error")
	}
	if _, err := MAPE([]float64{1}, []float64{0}); err == nil {
		t.Error("MAPE all-zero truth did not error")
	}
}

func TestFitLineExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEq(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("FitLine with one point did not error")
	}
	if _, err := FitLine([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("FitLine with degenerate x did not error")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("FitLine length mismatch did not error")
	}
}

func TestBin(t *testing.T) {
	keys := []float64{-110, -104, -96, -96, -50, -200}
	ys := []float64{1, 2, 3, 4, 5, 6}
	bs, err := Bin(keys, ys, -110, -90, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 4 {
		t.Fatalf("bins = %d, want 4", len(bs))
	}
	if len(bs[0].Values) != 1 || bs[0].Values[0] != 1 {
		t.Errorf("bin[-110,-105) = %v", bs[0].Values)
	}
	if len(bs[1].Values) != 1 || bs[1].Values[0] != 2 {
		t.Errorf("bin[-105,-100) = %v", bs[1].Values)
	}
	if len(bs[2].Values) != 2 {
		t.Errorf("bin[-100,-95) = %v", bs[2].Values)
	}
	if _, err := Bin(keys, ys, 0, 10, 0); err == nil {
		t.Error("zero-width Bin did not error")
	}
	if _, err := Bin(keys, ys[:3], -110, -90, 5); err == nil {
		t.Error("length-mismatched Bin did not error")
	}
}

func TestClampRelError(t *testing.T) {
	if got := RelError(84, 100); !almostEq(got, 84, 1e-12) {
		t.Errorf("RelError = %v, want 84", got)
	}
	if RelError(1, 0) != 0 {
		t.Error("RelError with zero truth != 0")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%30) + 1
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			if v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: harmonic mean <= arithmetic mean for positive samples.
func TestHarmonicLEArithmeticProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%20) + 1
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = rng.Float64()*999 + 1
		}
		return HarmonicMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FitLine recovers a noiseless line exactly.
func TestFitLineRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		slope := rng.NormFloat64() * 10
		icept := rng.NormFloat64() * 100
		x := make([]float64, 10)
		y := make([]float64, 10)
		for i := range x {
			x[i] = float64(i) + rng.Float64()
			y[i] = slope*x[i] + icept
		}
		fit, err := FitLine(x, y)
		if err != nil {
			return false
		}
		return almostEq(fit.Slope, slope, 1e-6) && almostEq(fit.Intercept, icept, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHasNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		xs   []float64
		want bool
	}{
		{"empty", nil, false},
		{"clean", []float64{1, 2, 3}, false},
		{"single", []float64{7}, false},
		{"single NaN", []float64{nan}, true},
		{"leading NaN", []float64{nan, 1, 2}, true},
		{"trailing NaN", []float64{1, 2, nan}, true},
		{"infinities are not NaN", []float64{math.Inf(-1), 0, math.Inf(1)}, false},
	}
	for _, c := range cases {
		if got := HasNaN(c.xs); got != c.want {
			t.Errorf("%s: HasNaN = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPercentileNaNInfSingle covers the rank-corruption bug: sort.Float64s
// orders NaNs first, so before the guard a NaN-tainted slice returned a
// plausible but rank-shifted value. Now any NaN input yields NaN; ±Inf and
// single-element slices behave normally.
func TestPercentileNaNInfSingle(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64 // NaN means "want NaN"
	}{
		{"NaN poisons p50", []float64{nan, 1, 2, 3}, 50, nan},
		{"NaN poisons p100", []float64{1, 2, nan}, 100, nan},
		{"NaN poisons p0", []float64{1, nan}, 0, nan},
		{"all NaN", []float64{nan, nan}, 50, nan},
		{"single element p0", []float64{42}, 0, 42},
		{"single element p50", []float64{42}, 50, 42},
		{"single element p100", []float64{42}, 100, 42},
		{"+Inf at the top", []float64{1, 2, inf}, 100, inf},
		{"-Inf at the bottom", []float64{math.Inf(-1), 1, 2}, 0, math.Inf(-1)},
		{"interior percentile unaffected by Inf ends", []float64{math.Inf(-1), 5, inf}, 50, 5},
	}
	for _, c := range cases {
		got := Percentile(c.xs, c.p)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Percentile = %v, want NaN", c.name, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("%s: Percentile = %v, want %v", c.name, got, c.want)
		}
	}
	// PercentileSorted sees the same guard via the sorted-NaN-first layout.
	sorted := append([]float64(nil), nan, 1, 2)
	if got := PercentileSorted(sorted, 95); !math.IsNaN(got) {
		t.Errorf("PercentileSorted over NaN-tainted slice = %v, want NaN", got)
	}
	// Mean propagates NaN visibly rather than absorbing it.
	if got := Mean([]float64{1, nan}); !math.IsNaN(got) {
		t.Errorf("Mean with NaN = %v, want NaN", got)
	}
}
