package experiments

import (
	"strings"
	"testing"
)

// render concatenates tables exactly as the fgrepro CLI emits them.
func render(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
	}
	return b.String()
}

// The determinism contract of the tentpole: for the same Config, the
// parallel runner's output is byte-identical to the serial runner's, for a
// representative slice of every experiment family (mobility, power, ABR,
// web/DT, validation).
func TestParallelMatchesSerialByteForByte(t *testing.T) {
	ids := []string{"fig9", "fig11", "fig17", "table6", "validation"}
	cfg := Config{Seed: 7, Quick: true}

	var serial strings.Builder
	for _, id := range ids {
		tables, err := Run(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial.WriteString(render(tables))
	}

	results, err := RunMany(cfg, ids, 4)
	if err != nil {
		t.Fatal(err)
	}
	var parallel strings.Builder
	for _, r := range results {
		parallel.WriteString(r.Render())
	}

	if serial.String() != parallel.String() {
		t.Fatalf("parallel output differs from serial output:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// RunAllParallel must preserve sorted-id order and agree with RunAll table
// by table across the whole battery.
func TestRunAllParallelMatchesRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full battery; skipped in -short mode")
	}
	cfg := Config{Seed: 1, Quick: true}
	serial := RunAll(cfg)
	results := RunAllParallel(cfg, 0)

	ids := IDs()
	if len(results) != len(ids) {
		t.Fatalf("RunAllParallel returned %d results, want %d", len(results), len(ids))
	}
	var parTables []*Table
	for i, r := range results {
		if r.ID != ids[i] {
			t.Fatalf("result %d has id %q, want %q (sorted order)", i, r.ID, ids[i])
		}
		parTables = append(parTables, r.Tables...)
	}
	if len(parTables) != len(serial) {
		t.Fatalf("parallel produced %d tables, serial %d", len(parTables), len(serial))
	}
	for i := range serial {
		if s, p := serial[i].String(), parTables[i].String(); s != p {
			t.Errorf("table %d (%s) differs:\n--- serial ---\n%s\n--- parallel ---\n%s",
				i, serial[i].ID, s, p)
		}
	}
}

func TestRunManyUnknownID(t *testing.T) {
	_, err := RunMany(Config{Seed: 1, Quick: true}, []string{"fig9", "nope"}, 2)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want unknown-experiment error naming %q", err, "nope")
	}
}

func TestRunManyAccounting(t *testing.T) {
	// table2 and table7 both drive RRC machines (RRC cycles, RRC-Probe),
	// so the deadlines those machines fire must be counted; not every
	// experiment is event-driven (e.g. the fig9 mobility loop), so
	// Events == 0 is legal in general.
	results, err := RunMany(Config{Seed: 3, Quick: true}, []string{"table2", "table7"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.Tables) == 0 {
			t.Errorf("%s: no tables", r.ID)
		}
		if r.Wall <= 0 {
			t.Errorf("%s: Wall = %v, want > 0", r.ID, r.Wall)
		}
		if r.Events == 0 {
			t.Errorf("%s: Events = 0, want > 0 (machine counts not captured)", r.ID)
		}
	}
}

func TestRunManyEmptyAndWorkerClamp(t *testing.T) {
	results, err := RunMany(Config{}, nil, 8)
	if err != nil || len(results) != 0 {
		t.Fatalf("RunMany(nil ids) = %v, %v; want empty, nil", results, err)
	}
	// More workers than experiments must still run everything exactly once.
	results, err = RunMany(Config{Seed: 1, Quick: true}, []string{"table2"}, 64)
	if err != nil || len(results) != 1 || results[0].ID != "table2" {
		t.Fatalf("worker clamp broken: %v, %v", results, err)
	}
}

func TestTableStringWideRows(t *testing.T) {
	tb := &Table{
		ID:     "t",
		Title:  "wide rows",
		Header: []string{"a", "b"},
		Rows: [][]string{
			{"1", "2", "extra", "x"},
			{"longcell", "2"},
		},
	}
	out := tb.String()
	lines := strings.Split(out, "\n")
	// lines: banner, header, separator, row1, row2, ""
	if len(lines) < 5 {
		t.Fatalf("unexpected render:\n%s", out)
	}
	row1 := lines[3]
	if !strings.Contains(row1, "1         2  extra  x") {
		t.Errorf("cells beyond the header are not padded/aligned: %q", row1)
	}
}
