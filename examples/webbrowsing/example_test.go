// Web browsing over mmWave 5G vs 4G (§6): load a synthetic Alexa-style
// corpus on both radios, look at the PLT/energy tradeoff, and train the
// interpretable decision trees that pick the radio per website.
package webbrowsing_test

import (
	"fmt"
	"log"

	"fivegsim/internal/stats"
	"fivegsim/internal/web"
)

func Example() {
	corpus := web.GenCorpus(1000, 1)
	ms := web.MeasureCorpus(corpus, 4, 2)

	// The headline tradeoff: 5G is faster, 4G is cheaper.
	var p4, p5, e4, e5 []float64
	for _, m := range ms {
		p4 = append(p4, m.PLT4G)
		p5 = append(p5, m.PLT5G)
		e4 = append(e4, m.Energy4GJ)
		e5 = append(e5, m.Energy5GJ)
	}
	fmt.Printf("median PLT:    5G %.2f s  vs 4G %.2f s\n", stats.Median(p5), stats.Median(p4))
	fmt.Printf("median energy: 5G %.2f J  vs 4G %.2f J\n\n", stats.Median(e5), stats.Median(e4))

	// A small PLT penalty buys a big energy saving (Fig. 21).
	var pens, savs []float64
	for _, m := range ms {
		pens = append(pens, m.PLTPenaltyPct)
		savs = append(savs, m.EnergySavingPct)
	}
	fmt.Println("energy saving by PLT-penalty bucket:")
	bins, err := stats.Bin(pens, savs, 0, 150, 30)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range bins {
		if len(b.Values) < 5 {
			continue
		}
		fmt.Printf("  penalty %3.0f-%3.0f%%: save %.0f%% energy (%d sites)\n",
			b.Lo, b.Hi, stats.Mean(b.Values), len(b.Values))
	}

	// Train the five utility-weighted selection models (Table 6).
	models, err := web.TrainAll(ms, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-website radio selection (test set):")
	for _, m := range models {
		fmt.Printf("  %s (%s, alpha=%.1f): use 4G %d / use 5G %d, saves %.0f%% energy\n",
			m.Weights.ID, m.Weights.Label, m.Weights.Alpha,
			m.TestUse4G, m.TestUse5G, m.EnergySavingPct)
	}

	// The models are interpretable: show what the balanced one looks at.
	m3, err := web.TrainSelection(ms, web.Models[2], 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nM3's deciding factors: %v\n", m3.TopFactors(3))
	fmt.Println(m3.Tree.Describe(2))

	// Output:
	// median PLT:    5G 1.21 s  vs 4G 2.30 s
	// median energy: 5G 3.90 J  vs 4G 1.18 J
	//
	// energy saving by PLT-penalty bucket:
	//   penalty  30- 60%: save 77% energy (149 sites)
	//   penalty  60- 90%: save 72% energy (309 sites)
	//   penalty  90-120%: save 67% energy (342 sites)
	//   penalty 120-150%: save 59% energy (163 sites)
	//
	// per-website radio selection (test set):
	//   M1 (High Performance, alpha=0.2): use 4G 5 / use 5G 295, saves 1% energy
	//   M2 (Performance Oriented, alpha=0.4): use 4G 191 / use 5G 109, saves 50% energy
	//   M3 (Balanced, alpha=0.5): use 4G 282 / use 5G 18, saves 63% energy
	//   M4 (Better Energy Saving, alpha=0.6): use 4G 299 / use 5G 1, saves 65% energy
	//   M5 (High Energy Saving, alpha=0.8): use 4G 300 / use 5G 0, saves 66% energy
	//
	// M3's deciding factors: [PS DNO AOS]
	// PS < 5.92e+06? (n=560)
	//   DNO < 0.003077? (n=461)
	//     PS < 1.507e+06? (n=42)
	//     AOS < 9.591e+04? (n=419)
	//   DNO < 0.07411? (n=99)
	//     leaf: class 1 (n=30)
	//     leaf: class 0 (n=69)
}
