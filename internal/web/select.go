package web

import (
	"fmt"
	"math/rand"

	"fivegsim/internal/dtree"
)

// UtilityWeights is the linear QoE of §6.2: QoE = alpha*EC + beta*PLT
// (lower is better), with EC and PLT min-max normalised over the dataset.
type UtilityWeights struct {
	ID    string
	Label string
	Alpha float64 // energy weight
	Beta  float64 // PLT weight
}

// Models M1-M5 from Table 6.
var Models = []UtilityWeights{
	{"M1", "High Performance", 0.2, 0.8},
	{"M2", "Performance Oriented", 0.4, 0.6},
	{"M3", "Balanced", 0.5, 0.5},
	{"M4", "Better Energy Saving", 0.6, 0.4},
	{"M5", "High Energy Saving", 0.8, 0.2},
}

// Choice labels the classifier's classes.
const (
	Use4G = 0
	Use5G = 1
)

// labelFor computes the ground-truth radio choice for a measurement under
// the weights, given dataset-wide normalisation constants.
func labelFor(m Measurement, w UtilityWeights, maxE, maxP float64) int {
	u4 := w.Alpha*m.Energy4GJ/maxE + w.Beta*m.PLT4G/maxP
	u5 := w.Alpha*m.Energy5GJ/maxE + w.Beta*m.PLT5G/maxP
	if u5 < u4 {
		return Use5G
	}
	return Use4G
}

// SelectionModel is a trained per-website radio selector.
type SelectionModel struct {
	Weights UtilityWeights
	Tree    *dtree.Classifier
	// Test-set outcome (the Table 6 columns).
	TestUse4G int
	TestUse5G int
	Accuracy  float64
	// EnergySavingPct is the mean test-set energy saved versus always-5G
	// when following the model's choices.
	EnergySavingPct float64
	maxE, maxP      float64
}

// TrainSelection fits a bottom-up post-pruned decision tree for the given
// utility weights on a 70:30 split of the measurements (§6.2's model
// setup). The seed shuffles the split.
func TrainSelection(ms []Measurement, w UtilityWeights, seed int64) (*SelectionModel, error) {
	if len(ms) < 10 {
		return nil, fmt.Errorf("web: need >= 10 measurements, got %d", len(ms))
	}
	var maxE, maxP float64
	for _, m := range ms {
		if m.Energy5GJ > maxE {
			maxE = m.Energy5GJ
		}
		if m.Energy4GJ > maxE {
			maxE = m.Energy4GJ
		}
		if m.PLT4G > maxP {
			maxP = m.PLT4G
		}
		if m.PLT5G > maxP {
			maxP = m.PLT5G
		}
	}
	if maxE <= 0 || maxP <= 0 {
		return nil, fmt.Errorf("web: degenerate measurements (maxE=%v maxP=%v)", maxE, maxP)
	}

	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(ms))
	nTrain := len(ms) * 7 / 10
	nVal := nTrain / 5 // held out of training for pruning
	build := func(ids []int) ([][]float64, []int) {
		X := make([][]float64, len(ids))
		y := make([]int, len(ids))
		for i, id := range ids {
			X[i] = ms[id].Site.Features()
			y[i] = labelFor(ms[id], w, maxE, maxP)
		}
		return X, y
	}
	Xtr, ytr := build(idx[:nTrain-nVal])
	Xval, yval := build(idx[nTrain-nVal : nTrain])
	Xte, yte := build(idx[nTrain:])

	tree, err := dtree.TrainClassifier(Xtr, ytr, 2, dtree.Options{MaxDepth: 6, MinLeaf: 5})
	if err != nil {
		return nil, err
	}
	tree.FeatureNames = FeatureNames
	tree.Prune(Xval, yval)

	sm := &SelectionModel{Weights: w, Tree: tree, maxE: maxE, maxP: maxP}
	sm.Accuracy = tree.Accuracy(Xte, yte)
	var savedJ, baseJ float64
	for _, id := range idx[nTrain:] {
		m := ms[id]
		switch tree.Predict(m.Site.Features()) {
		case Use4G:
			sm.TestUse4G++
			savedJ += m.Energy4GJ
		default:
			sm.TestUse5G++
			savedJ += m.Energy5GJ
		}
		baseJ += m.Energy5GJ
	}
	if baseJ > 0 {
		sm.EnergySavingPct = (baseJ - savedJ) / baseJ * 100
	}
	return sm, nil
}

// TopFactors returns the names of the features used by the tree's
// shallowest splits — the interpretable structure of Fig. 22.
func (m *SelectionModel) TopFactors(n int) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range m.Tree.Splits() {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
		if len(out) == n {
			break
		}
	}
	return out
}

// TrainAll trains every Table 6 model on one measurement set.
func TrainAll(ms []Measurement, seed int64) ([]*SelectionModel, error) {
	out := make([]*SelectionModel, 0, len(Models))
	for _, w := range Models {
		m, err := TrainSelection(ms, w, seed)
		if err != nil {
			return nil, fmt.Errorf("web: training %s: %w", w.ID, err)
		}
		out = append(out, m)
	}
	return out, nil
}
