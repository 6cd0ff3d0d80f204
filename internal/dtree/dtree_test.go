package dtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeStepData builds a regression problem with a sharp step: y = 10 for
// x0 < 5, else 50, plus a linear term on x1.
func makeStepData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0 := rng.Float64() * 10
		x1 := rng.Float64() * 2
		X[i] = []float64{x0, x1}
		if x0 < 5 {
			y[i] = 10 + 3*x1
		} else {
			y[i] = 50 + 3*x1
		}
	}
	return X, y
}

func TestRegressorLearnsStep(t *testing.T) {
	X, y := makeStepData(400, 1)
	r, err := TrainRegressor(X, y, Options{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Predictions near the two plateaus.
	if got := r.Predict([]float64{2, 0}); math.Abs(got-10) > 4 {
		t.Errorf("Predict(low) = %v, want ~10", got)
	}
	if got := r.Predict([]float64{8, 0}); math.Abs(got-50) > 4 {
		t.Errorf("Predict(high) = %v, want ~50", got)
	}
	if r.Depth() < 1 || r.Leaves() < 2 {
		t.Errorf("tree too small: depth %d leaves %d", r.Depth(), r.Leaves())
	}
}

func TestRegressorConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	y := []float64{7, 7, 7, 7, 7, 7}
	r, err := TrainRegressor(X, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Predict([]float64{99}); got != 7 {
		t.Errorf("constant predict = %v, want 7", got)
	}
	if r.Leaves() != 1 {
		t.Errorf("constant target should yield a stump, got %d leaves", r.Leaves())
	}
}

func TestRegressorInputValidation(t *testing.T) {
	if _, err := TrainRegressor(nil, nil, Options{}); err == nil {
		t.Error("empty training set did not error")
	}
	if _, err := TrainRegressor([][]float64{{1}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("length mismatch did not error")
	}
	if _, err := TrainRegressor([][]float64{{1}, {1, 2}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("ragged rows did not error")
	}
	if _, err := TrainRegressor([][]float64{{}, {}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("zero-width rows did not error")
	}
}

func TestRegressorMinLeafRespected(t *testing.T) {
	X, y := makeStepData(100, 2)
	r, err := TrainRegressor(X, y, Options{MaxDepth: 20, MinLeaf: 30})
	if err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 30 on 100 samples, at most 3 leaves.
	if r.Leaves() > 3 {
		t.Errorf("leaves = %d, want <= 3 under MinLeaf=30", r.Leaves())
	}
}

func TestRegressorDepthLimit(t *testing.T) {
	X, y := makeStepData(500, 3)
	r, err := TrainRegressor(X, y, Options{MaxDepth: 2, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Depth() > 2 {
		t.Errorf("depth = %d, want <= 2", r.Depth())
	}
}

// Property: a regression tree's prediction is always within [min(y), max(y)].
func TestRegressorPredictionBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.NormFloat64() * 100
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		r, err := TrainRegressor(X, y, Options{})
		if err != nil {
			return false
		}
		for k := 0; k < 20; k++ {
			p := r.Predict([]float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// makeClsData: class = 1 if x0 > 3 and x1 > 1 else 0.
func makeClsData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x0 := rng.Float64() * 6
		x1 := rng.Float64() * 2
		X[i] = []float64{x0, x1}
		if x0 > 3 && x1 > 1 {
			y[i] = 1
		}
	}
	return X, y
}

func TestClassifierLearnsAND(t *testing.T) {
	X, y := makeClsData(600, 5)
	c, err := TrainClassifier(X, y, 2, Options{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := c.Accuracy(X, y); acc < 0.97 {
		t.Errorf("training accuracy = %v, want >= 0.97", acc)
	}
	if got := c.Predict([]float64{5, 1.8}); got != 1 {
		t.Errorf("Predict(5,1.8) = %d, want 1", got)
	}
	if got := c.Predict([]float64{1, 1.8}); got != 0 {
		t.Errorf("Predict(1,1.8) = %d, want 0", got)
	}
}

func TestClassifierValidation(t *testing.T) {
	X := [][]float64{{1}, {2}}
	if _, err := TrainClassifier(X, []int{0, 5}, 2, Options{}); err == nil {
		t.Error("out-of-range label did not error")
	}
	if _, err := TrainClassifier(X, []int{0, 1}, 1, Options{}); err == nil {
		t.Error("single class did not error")
	}
	if _, err := TrainClassifier(nil, nil, 2, Options{}); err == nil {
		t.Error("empty set did not error")
	}
}

// TestFeatureImportance: when the class depends only on feature 0, the
// tree's splits — what the web models' TopFactors reads as the important
// features — use feature 0 alone.
func TestFeatureImportance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 500
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if X[i][0] > 0.5 {
			y[i] = 1
		}
	}
	c, err := TrainClassifier(X, y, 2, Options{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	sp := c.Splits()
	if len(sp) == 0 {
		t.Fatal("no splits recorded")
	}
	for _, s := range sp {
		if s.Feature != 0 {
			t.Errorf("split %+v, want splits on feature 0 only", s)
		}
	}
}

func TestPruneReducesLeavesWithoutAccuracyLoss(t *testing.T) {
	// Noisy labels force an overgrown tree; pruning against validation
	// data must shrink it while not hurting validation accuracy.
	rng := rand.New(rand.NewSource(7))
	n := 800
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		if X[i][0] > 0.5 {
			y[i] = 1
		}
		if rng.Float64() < 0.15 { // label noise
			y[i] = 1 - y[i]
		}
	}
	Xtr, ytr := X[:500], y[:500]
	Xval, yval := X[500:], y[500:]
	c, err := TrainClassifier(Xtr, ytr, 2, Options{MaxDepth: 10, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Leaves()
	accBefore := c.Accuracy(Xval, yval)
	c.Prune(Xval, yval)
	after := c.Leaves()
	accAfter := c.Accuracy(Xval, yval)
	if after >= before {
		t.Errorf("pruning did not shrink the tree: %d -> %d leaves", before, after)
	}
	if accAfter < accBefore {
		t.Errorf("pruning reduced validation accuracy %v -> %v", accBefore, accAfter)
	}
	// Pruning with no validation data is a no-op.
	c.Prune(nil, nil)
}

func TestSplitsAndDescribe(t *testing.T) {
	X, y := makeClsData(400, 8)
	c, err := TrainClassifier(X, y, 2, Options{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.FeatureNames = []string{"PS", "DNO"}
	sp := c.Splits()
	if len(sp) == 0 {
		t.Fatal("no splits recorded")
	}
	if sp[0].Depth != 0 {
		t.Error("splits not ordered shallowest-first")
	}
	if sp[0].Name != "PS" && sp[0].Name != "DNO" {
		t.Errorf("split name = %q", sp[0].Name)
	}
	if d := c.Describe(2); len(d) == 0 {
		t.Error("empty Describe")
	}
}

func TestGBDTBeatsSingleTreeOnSmooth(t *testing.T) {
	// Smooth nonlinear target: y = sin(x0)*5 + x1^2.
	rng := rand.New(rand.NewSource(9))
	n := 600
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{rng.Float64() * 6, rng.Float64() * 3}
		y[i] = 5*math.Sin(X[i][0]) + X[i][1]*X[i][1]
	}
	Xtr, ytr := X[:400], y[:400]
	Xte, yte := X[400:], y[400:]
	single, err := TrainRegressor(Xtr, ytr, Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	boost, err := TrainGBDT(Xtr, ytr, GBDTOptions{Trees: 150, LearningRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	mse := func(pred func([]float64) float64) float64 {
		s := 0.0
		for i := range Xte {
			d := pred(Xte[i]) - yte[i]
			s += d * d
		}
		return s / float64(len(Xte))
	}
	ms, mb := mse(single.Predict), mse(boost.Predict)
	if mb >= ms {
		t.Errorf("GBDT mse %v not better than single depth-3 tree %v", mb, ms)
	}
	if len(boost.trees) == 0 {
		t.Error("GBDT trained zero rounds")
	}
}

func TestGBDTEarlyStopOnPerfectFit(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
	y := []float64{3, 3, 3, 3, 3, 3, 3, 3}
	g, err := TrainGBDT(X, y, GBDTOptions{Trees: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.trees) != 0 {
		t.Errorf("constant target should stop immediately, got %d rounds", len(g.trees))
	}
	if got := g.Predict([]float64{4}); got != 3 {
		t.Errorf("Predict = %v, want 3", got)
	}
}

func TestGBDTValidation(t *testing.T) {
	if _, err := TrainGBDT(nil, nil, GBDTOptions{}); err == nil {
		t.Error("empty GBDT training set did not error")
	}
}

// Property: classifier training accuracy on separable data with a deep tree
// is perfect.
func TestClassifierSeparableProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 80
		X := make([][]float64, n)
		y := make([]int, n)
		cut := rng.Float64()*10 - 5
		for i := 0; i < n; i++ {
			X[i] = []float64{rng.NormFloat64() * 5}
			if X[i][0] > cut {
				y[i] = 1
			}
		}
		c, err := TrainClassifier(X, y, 2, Options{MaxDepth: 25})
		if err != nil {
			return false
		}
		return c.Accuracy(X, y) == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
