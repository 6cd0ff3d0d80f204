package web

import (
	"math/rand"
	"testing"

	"fivegsim/internal/stats"
)

func corpus(t *testing.T, n int) []Website {
	t.Helper()
	return GenCorpus(n, 1)
}

func measurements(t *testing.T, n, repeats int) []Measurement {
	t.Helper()
	return MeasureCorpus(corpus(t, n), repeats, 2)
}

func TestWebsiteDerivedFeatures(t *testing.T) {
	w := Website{NumObjects: 100, DynamicObjects: 30, TotalBytes: 5e6, DynamicBytes: 2e6}
	if got := w.DynamicRatio(); got != 0.3 {
		t.Errorf("DNO = %v", got)
	}
	if got := w.DynamicSizeRatio(); got != 0.4 {
		t.Errorf("DSO = %v", got)
	}
	if got := w.AvgObjectBytes(); got != 5e4 {
		t.Errorf("AOS = %v", got)
	}
	var zero Website
	if zero.DynamicRatio() != 0 || zero.DynamicSizeRatio() != 0 || zero.AvgObjectBytes() != 0 {
		t.Error("zero website derived features should be zero")
	}
	f := w.Features()
	if len(f) != len(FeatureNames) {
		t.Fatalf("feature width %d vs names %d", len(f), len(FeatureNames))
	}
}

func TestGenCorpusDistributions(t *testing.T) {
	sites := corpus(t, 1500)
	if len(sites) != 1500 {
		t.Fatalf("corpus size %d", len(sites))
	}
	var nos, pss, dnos []float64
	for _, w := range sites {
		if w.NumObjects < 1 || w.NumObjects > 1200 {
			t.Fatalf("object count %d out of range", w.NumObjects)
		}
		if w.TotalBytes <= 0 || w.TotalBytes > 60e6 {
			t.Fatalf("page size %v out of range", w.TotalBytes)
		}
		if w.DynamicObjects > w.NumObjects {
			t.Fatal("more dynamic objects than objects")
		}
		nos = append(nos, float64(w.NumObjects))
		pss = append(pss, w.TotalBytes)
		dnos = append(dnos, w.DynamicRatio())
	}
	if med := stats.Median(nos); med < 40 || med > 130 {
		t.Errorf("object-count median = %v, want ~70", med)
	}
	if med := stats.Median(pss); med < 0.5e6 || med > 8e6 {
		t.Errorf("page-size median = %v, want a few MB", med)
	}
	// The corpus spans the Fig. 19 buckets: small, medium, and huge pages.
	if stats.Max(pss) < 10e6 {
		t.Error("no >10MB pages in the corpus")
	}
	if stats.Min(pss) > 1e6 {
		t.Error("no <1MB pages in the corpus")
	}
	// A noticeable dynamic-heavy tail exists (ad-heavy sites).
	heavy := 0
	for _, d := range dnos {
		if d > 0.6 {
			heavy++
		}
	}
	if heavy < 50 {
		t.Errorf("dynamic-heavy sites = %d, want a visible tail", heavy)
	}
}

func TestLoadBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := corpus(t, 10)[0]
	l5 := Load(w, Profile5G, rng)
	l4 := Load(w, Profile4G, rng)
	if l5.PLTSeconds <= 0 || l4.PLTSeconds <= 0 {
		t.Fatal("non-positive PLT")
	}
	if l5.EnergyJ <= 0 || l4.EnergyJ <= 0 {
		t.Fatal("non-positive energy")
	}
	if l5.MeanMbps <= 0 {
		t.Fatal("non-positive goodput")
	}
}

func TestFiveGFasterFourGCheaper(t *testing.T) {
	// Fig. 20: 5G PLT is (almost) always better; 4G energy is always
	// better.
	ms := measurements(t, 300, 3)
	fasterCount, cheaperCount := 0, 0
	for _, m := range ms {
		if m.PLT5G < m.PLT4G {
			fasterCount++
		}
		if m.Energy4GJ < m.Energy5GJ {
			cheaperCount++
		}
	}
	if frac := float64(fasterCount) / float64(len(ms)); frac < 0.97 {
		t.Errorf("5G faster on only %.0f%% of sites", frac*100)
	}
	if frac := float64(cheaperCount) / float64(len(ms)); frac < 0.97 {
		t.Errorf("4G cheaper on only %.0f%% of sites", frac*100)
	}
}

func TestGapGrowsWithPageWeight(t *testing.T) {
	// Fig. 19: as the number of objects (and page size) grows, the
	// 4G-vs-5G PLT gap widens, and so does the energy gap in 4G's favour.
	ms := measurements(t, 600, 2)
	var smallGap, bigGap []float64
	var smallE, bigE []float64
	for _, m := range ms {
		gap := m.PLT4G - m.PLT5G
		eGap := m.Energy5GJ - m.Energy4GJ
		if m.Site.NumObjects <= 50 {
			smallGap = append(smallGap, gap)
			smallE = append(smallE, eGap)
		}
		if m.Site.NumObjects > 200 {
			bigGap = append(bigGap, gap)
			bigE = append(bigE, eGap)
		}
	}
	if len(smallGap) < 10 || len(bigGap) < 10 {
		t.Fatalf("bucket sizes %d/%d too small", len(smallGap), len(bigGap))
	}
	if stats.Mean(bigGap) <= stats.Mean(smallGap) {
		t.Errorf("PLT gap does not grow: small %.2f vs big %.2f",
			stats.Mean(smallGap), stats.Mean(bigGap))
	}
	if stats.Mean(bigE) <= stats.Mean(smallE) {
		t.Errorf("energy gap does not grow: small %.2f vs big %.2f",
			stats.Mean(smallE), stats.Mean(bigE))
	}
}

func TestFig21SavingsAtSmallPenalty(t *testing.T) {
	// Fig. 21: a small PLT penalty buys a large (tens of percent) energy
	// saving, and savings decline as the penalty bucket grows.
	ms := measurements(t, 800, 2)
	var pens, savs []float64
	for _, m := range ms {
		pens = append(pens, m.PLTPenaltyPct)
		savs = append(savs, m.EnergySavingPct)
	}
	buckets, err := stats.Bin(pens, savs, 0, 120, 20)
	if err != nil {
		t.Fatal(err)
	}
	first := stats.Mean(buckets[0].Values)
	if len(buckets[0].Values) > 3 && (first < 40 || first > 95) {
		t.Errorf("saving at the smallest penalty bucket = %.0f%%, want large (~70%%)", first)
	}
	// Monotone-ish decline across populated buckets.
	prev := 1e9
	for _, b := range buckets {
		if len(b.Values) < 5 {
			continue
		}
		m := stats.Mean(b.Values)
		if m > prev+15 {
			t.Errorf("savings increase across penalty buckets: %v then %v", prev, m)
		}
		prev = m
	}
}

func TestMeasureCorpusAveraging(t *testing.T) {
	ms := measurements(t, 20, 4)
	if len(ms) != 20 {
		t.Fatalf("measurements %d", len(ms))
	}
	for _, m := range ms {
		if m.PLT5G <= 0 || m.PLT4G <= 0 || m.Energy5GJ <= 0 || m.Energy4GJ <= 0 {
			t.Fatal("non-positive averaged metrics")
		}
	}
	// Repeats clamped to >= 1.
	if got := MeasureCorpus(corpus(t, 3), 0, 1); len(got) != 3 || got[0].PLT5G <= 0 {
		t.Fatalf("repeats 0: %d measurements, want 3 with one load each", len(got))
	}
}

func TestLoadDeterministicGivenSeed(t *testing.T) {
	w := corpus(t, 1)[0]
	a := Load(w, Profile5G, rand.New(rand.NewSource(5)))
	b := Load(w, Profile5G, rand.New(rand.NewSource(5)))
	if a.PLTSeconds != b.PLTSeconds || a.EnergyJ != b.EnergyJ {
		t.Error("load not deterministic")
	}
}
