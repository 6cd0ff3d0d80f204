package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quick() Config { return Config{Seed: 1, Quick: true} }

// cell parses a table cell as a float, stripping % signs.
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tb.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tb.ID, row, col, tb.Rows[row][col])
	}
	return v
}

func run(t *testing.T, id string) []*Table {
	t.Helper()
	ts, err := Run(id, quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	return ts
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must be registered.
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"table8", "table9",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18a", "fig18b", "fig18c", "fig19", "fig20", "fig21", "fig22",
		"fig23", "fig24", "fig25", "fig26", "fig27", "validation",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(IDs()), len(want))
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig999", quick()); err == nil {
		t.Error("unknown experiment did not error")
	}
}

func TestEveryExperimentProducesOutput(t *testing.T) {
	for _, id := range IDs() {
		ts, err := Run(id, quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tb := range ts {
			if len(tb.Rows) == 0 {
				t.Errorf("%s: table %q has no rows", id, tb.Title)
			}
			if len(tb.Header) == 0 {
				t.Errorf("%s: table %q has no header", id, tb.Title)
			}
			if s := tb.String(); !strings.Contains(s, tb.ID) {
				t.Errorf("%s: rendering lacks the id", id)
			}
		}
	}
}

func TestFig2LatencyOrdering(t *testing.T) {
	tb := run(t, "fig2")[0]
	// Rows: mmWave, low-band, LTE; columns 1..5 are distances.
	for col := 1; col <= 5; col++ {
		mm := cell(t, tb, 0, col)
		lb := cell(t, tb, 1, col)
		lte := cell(t, tb, 2, col)
		if !(mm < lb && lb < lte) {
			t.Errorf("col %d: RTT ordering violated: %v %v %v", col, mm, lb, lte)
		}
	}
	// RTT grows with distance on every network.
	for row := 0; row < 3; row++ {
		prev := 0.0
		for col := 1; col <= 5; col++ {
			v := cell(t, tb, row, col)
			if v <= prev {
				t.Errorf("row %d: RTT not increasing with distance", row)
			}
			prev = v
		}
	}
}

func TestFig3MultiConnFlat(t *testing.T) {
	tb := run(t, "fig3")[0]
	for r := range tb.Rows {
		if v := cell(t, tb, r, 3); v < 3000 {
			t.Errorf("multi-conn DL at %s = %v, want > 3000", tb.Rows[r][0], v)
		}
	}
	// Single-conn decays: last < first.
	first := cell(t, tb, 0, 4)
	last := cell(t, tb, len(tb.Rows)-1, 4)
	if last >= first {
		t.Errorf("single-conn does not decay: %v -> %v", first, last)
	}
}

func TestFig6SAHalf(t *testing.T) {
	ts := run(t, "fig6")
	nsa, sa := ts[0], ts[1]
	for r := range nsa.Rows {
		ratio := cell(t, sa, r, 3) / cell(t, nsa, r, 3)
		if ratio < 0.3 || ratio > 0.7 {
			t.Errorf("SA/NSA DL ratio at row %d = %v, want ~0.5", r, ratio)
		}
	}
}

func TestFig8TransportOrdering(t *testing.T) {
	tb := run(t, "fig8")[0]
	for r := range tb.Rows {
		udp := cell(t, tb, r, 2)
		t8 := cell(t, tb, r, 3)
		tuned := cell(t, tb, r, 4)
		def := cell(t, tb, r, 5)
		if !(udp >= t8 && t8 > tuned && tuned > def) {
			t.Errorf("row %d: transport ordering violated: %v %v %v %v", r, udp, t8, tuned, def)
		}
		ratio := tuned / def
		if ratio < 1.7 || ratio > 4.5 {
			t.Errorf("row %d: tuned/default = %v, want ~2.1-3", r, ratio)
		}
	}
}

func TestFig9Counts(t *testing.T) {
	tb := run(t, "fig9")[0]
	// Rows: SA, NSA+LTE, LTE, SA+LTE, All.
	total := func(r int) float64 { return cell(t, tb, r, 1) }
	sa, nsa, lte, salte, all := total(0), total(1), total(2), total(3), total(4)
	if !(sa < lte && lte < nsa && sa < salte && salte < nsa && all < nsa && all > sa) {
		t.Errorf("fig9 ordering violated: %v %v %v %v %v", sa, nsa, lte, salte, all)
	}
	if vert := cell(t, tb, 1, 3); vert < 50 {
		t.Errorf("NSA vertical handoffs = %v, want ~90", vert)
	}
}

func TestTable2PowerValues(t *testing.T) {
	tb := run(t, "table2")[0]
	// Tail powers match Table 2 exactly (they parameterise the machine).
	want := []float64{178, 66, 249, 1092, 260, 593}
	for i, w := range want {
		if got := cell(t, tb, i, 2); got != w {
			t.Errorf("row %d tail power = %v, want %v", i, got, w)
		}
	}
}

func TestTable6MonotoneShift(t *testing.T) {
	tb := run(t, "table6")[0]
	prev := -1.0
	for r := range tb.Rows {
		use4g := cell(t, tb, r, 4)
		if use4g < prev-20 {
			t.Errorf("use-4G count not nondecreasing at %s", tb.Rows[r][0])
		}
		if use4g > prev {
			prev = use4g
		}
	}
	// M1 mostly 5G; M5 all 4G.
	if cell(t, tb, 0, 5) < 9*cell(t, tb, 0, 4) {
		t.Error("M1 should choose 5G overwhelmingly")
	}
	if cell(t, tb, 4, 5) != 0 {
		t.Error("M5 should choose 4G always")
	}
}

func TestFig20Orderings(t *testing.T) {
	tb := run(t, "fig20")[0]
	for r := range tb.Rows {
		if cell(t, tb, r, 2) >= cell(t, tb, r, 1) {
			t.Errorf("%s: 5G PLT >= 4G PLT", tb.Rows[r][0])
		}
		if cell(t, tb, r, 3) >= cell(t, tb, r, 4) {
			t.Errorf("%s: 4G energy >= 5G energy", tb.Rows[r][0])
		}
	}
}

func TestFig15THSSWins(t *testing.T) {
	tb := run(t, "fig15")[0]
	for r := range tb.Rows {
		thss := cell(t, tb, r, 1)
		th := cell(t, tb, r, 2)
		ss := cell(t, tb, r, 3)
		if thss > th || thss > ss {
			t.Errorf("%s: TH+SS (%v) not the best of (%v, %v)", tb.Rows[r][0], thss, th, ss)
		}
	}
	// SS is dramatically worse for the mmWave settings (first two rows).
	for r := 0; r < 2; r++ {
		if cell(t, tb, r, 3) < 3*cell(t, tb, r, 1) {
			t.Errorf("mmWave SS-only MAPE should dwarf TH+SS (row %d)", r)
		}
	}
}

func TestFig17StallsRiseOn5G(t *testing.T) {
	tb := run(t, "fig17")[0]
	rose := 0
	for r := range tb.Rows {
		if cell(t, tb, r, 2) > cell(t, tb, r, 4) {
			rose++
		}
	}
	if rose < len(tb.Rows)-1 {
		t.Errorf("only %d/%d algorithms stall more on 5G", rose, len(tb.Rows))
	}
	// Pensieve (row 4) has the worst 5G stalls.
	pens := cell(t, tb, 4, 2)
	for r := range tb.Rows {
		if r == 4 {
			continue
		}
		if cell(t, tb, r, 2) > pens {
			t.Errorf("%s stalls (%v) exceed Pensieve's (%v) on 5G",
				tb.Rows[r][0], cell(t, tb, r, 2), pens)
		}
	}
}

func TestFig18aPredictorOrdering(t *testing.T) {
	tb := run(t, "fig18a")[0]
	hm := cell(t, tb, 0, 1)
	gbdt := cell(t, tb, 1, 1)
	truth := cell(t, tb, 2, 1)
	if !(hm < gbdt && gbdt < truth) {
		t.Errorf("predictor QoE ordering violated: %v %v %v", hm, gbdt, truth)
	}
}

func TestFig18bShorterChunksBetter(t *testing.T) {
	tb := run(t, "fig18b")[0]
	if cell(t, tb, 2, 2) >= cell(t, tb, 0, 2) {
		t.Error("1 s chunks should stall less than 4 s")
	}
	if cell(t, tb, 2, 1) <= cell(t, tb, 0, 1)-0.01 {
		t.Error("1 s chunks should not lose bitrate vs 4 s")
	}
}

func TestTable4EnergySaving(t *testing.T) {
	tb := run(t, "table4")[0]
	only := cell(t, tb, 0, 1)
	aware := cell(t, tb, 1, 1)
	if aware >= only {
		t.Errorf("5G-aware energy %v >= 5G-only %v", aware, only)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"},
		Notes: []string{"n1"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	s := tb.String()
	for _, want := range []string{"=== x: T ===", "a    bb", "333  4", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q in:\n%s", want, s)
		}
	}
}

// TestDeterministicRendering guards the repository's core promise: the same
// seed reproduces the same results byte for byte.
func TestDeterministicRendering(t *testing.T) {
	ids := []string{"fig2", "fig9", "fig17", "table6", "table7", "ablation-tail"}
	for _, id := range ids {
		a, err := Run(id, quick())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, quick())
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: table counts differ", id)
		}
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Errorf("%s: table %d not deterministic", id, i)
			}
		}
	}
}

func TestSeedChangesEmergentResults(t *testing.T) {
	// Different seeds must actually change stochastic experiments (guards
	// against accidentally ignoring the seed).
	a, err := Run("fig3", Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig3", Config{Seed: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if a[0].String() == b[0].String() {
		t.Error("fig3 output identical across seeds")
	}
}
