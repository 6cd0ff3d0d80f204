package web

import (
	"testing"
)

func trainedModels(t *testing.T) []*SelectionModel {
	t.Helper()
	ms := measurements(t, 1400, 2)
	models, err := TrainAll(ms, 7)
	if err != nil {
		t.Fatal(err)
	}
	return models
}

func TestModelsTable(t *testing.T) {
	if len(Models) != 5 {
		t.Fatalf("Models = %d, want 5 (M1-M5)", len(Models))
	}
	for _, m := range Models {
		if m.Alpha+m.Beta != 1.0 {
			t.Errorf("%s: alpha+beta = %v, want 1", m.ID, m.Alpha+m.Beta)
		}
	}
	// Alpha increases monotonically M1 -> M5 (Table 6).
	for i := 1; i < len(Models); i++ {
		if Models[i].Alpha <= Models[i-1].Alpha {
			t.Error("model alphas not increasing")
		}
	}
}

func TestTable6Shift(t *testing.T) {
	// Table 6's core structure: as the energy weight grows, the model
	// shifts from (almost) always-5G to always-4G.
	models := trainedModels(t)
	// M1 (performance-first) picks 5G for the overwhelming majority.
	if m1 := models[0]; m1.TestUse5G < 9*m1.TestUse4G {
		t.Errorf("M1 = %d/%d use4G/use5G, want mostly 5G", m1.TestUse4G, m1.TestUse5G)
	}
	// M5 (energy-first) picks 4G essentially always (paper: 420/0).
	if m5 := models[4]; m5.TestUse4G < 19*(m5.TestUse5G+1) {
		t.Errorf("M5 = %d/%d use4G/use5G, want all 4G", m5.TestUse4G, m5.TestUse5G)
	}
	// Use-4G counts are nondecreasing in alpha.
	for i := 1; i < len(models); i++ {
		if models[i].TestUse4G < models[i-1].TestUse4G-20 {
			t.Errorf("use-4G count dropped from %s (%d) to %s (%d)",
				models[i-1].Weights.ID, models[i-1].TestUse4G,
				models[i].Weights.ID, models[i].TestUse4G)
		}
	}
	// M4 and M5 lean heavily 4G with only dynamic-heavy exceptions
	// (paper: 405/15 and 420/0).
	if m4 := models[3]; float64(m4.TestUse4G)/float64(m4.TestUse4G+m4.TestUse5G) < 0.9 {
		t.Errorf("M4 4G share too low: %d/%d", m4.TestUse4G, m4.TestUse5G)
	}
}

func TestSelectionAccuracyAndSavings(t *testing.T) {
	models := trainedModels(t)
	for _, m := range models {
		if m.Accuracy < 0.85 {
			t.Errorf("%s: test accuracy %.2f, want >= 0.85", m.Weights.ID, m.Accuracy)
		}
		if m.EnergySavingPct < 0 || m.EnergySavingPct > 100 {
			t.Errorf("%s: saving = %v%%", m.Weights.ID, m.EnergySavingPct)
		}
	}
	// §6.2: interface selection saves 15-66% energy (for the models that
	// use 4G at all).
	for _, m := range models[1:] {
		if m.TestUse4G > 50 && (m.EnergySavingPct < 15 || m.EnergySavingPct > 85) {
			t.Errorf("%s: energy saving %.0f%%, want within the paper's 15-66%% ballpark",
				m.Weights.ID, m.EnergySavingPct)
		}
	}
}

func TestTopFactorsAreTable5Features(t *testing.T) {
	models := trainedModels(t)
	valid := map[string]bool{}
	for _, n := range FeatureNames {
		valid[n] = true
	}
	sawPageWeight := false
	for _, m := range models {
		for _, f := range m.TopFactors(3) {
			if !valid[f] {
				t.Errorf("%s: split on unknown feature %q", m.Weights.ID, f)
			}
			// Fig. 22: the interpretable splits involve page weight or
			// dynamic content (PS, NO, AOS, DNO, DSO).
			switch f {
			case "PS", "NO", "AOS", "DNO", "DSO":
				sawPageWeight = true
			}
		}
	}
	if !sawPageWeight {
		t.Error("no model split on page-weight/dynamic-content factors")
	}
}

func TestChooseConsistentWithCounts(t *testing.T) {
	ms := measurements(t, 300, 2)
	m, err := TrainSelection(ms, Models[2], 7)
	if err != nil {
		t.Fatal(err)
	}
	c4, c5 := 0, 0
	for _, mm := range ms {
		switch m.Tree.Predict(mm.Site.Features()) {
		case Use4G:
			c4++
		case Use5G:
			c5++
		default:
			t.Fatal("invalid choice")
		}
	}
	if c4+c5 != len(ms) {
		t.Error("choices do not cover the corpus")
	}
}

func TestTrainSelectionValidation(t *testing.T) {
	if _, err := TrainSelection(nil, Models[0], 1); err == nil {
		t.Error("empty measurements did not error")
	}
	if _, err := TrainSelection(make([]Measurement, 20), Models[0], 1); err == nil {
		t.Error("degenerate (all-zero) measurements did not error")
	}
}

func TestTrainDeterministic(t *testing.T) {
	ms := measurements(t, 200, 2)
	a, err := TrainSelection(ms, Models[1], 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainSelection(ms, Models[1], 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.TestUse4G != b.TestUse4G || a.Accuracy != b.Accuracy {
		t.Error("training not deterministic")
	}
}
