// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulation substrate: each experiment function
// reproduces the workload, parameters, and reporting of one published
// result and renders it as an aligned text table (the "rows/series" the
// paper plots).
//
// Experiments are deterministic given Config.Seed. Config.Quick trims
// repeat counts so the full battery stays fast in tests; benchmarks and the
// fgrepro CLI run the full-scale versions.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"fivegsim/internal/obs"
	"fivegsim/internal/stats"
)

// Config parameterises an experiment run.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Quick reduces repeats/sizes for fast test runs; the shapes asserted
	// by EXPERIMENTS.md hold in both modes.
	Quick bool
	// Obs, when enabled, collects sim-time traces and metrics from the
	// instrumented subsystems an experiment drives. It never changes the
	// tables: collection is a side channel. RunManyCtx replaces it with a
	// per-experiment collector so parallel experiments never share one.
	Obs *obs.Obs

	// events, when non-nil, accumulates the experiment's simulation
	// events; RunManyCtx points it at a per-experiment counter.
	events *uint64
}

// countEvents adds n simulation events to the experiment's counter.
func (c Config) countEvents(n uint64) {
	if c.events != nil {
		*c.events += n
	}
}

// pick returns quick when cfg.Quick, else full.
func (c Config) pick(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Table is one rendered result (a paper table, or the series behind a
// figure).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	// Size widths to the widest row, not just the header: rows may carry
	// more cells than the header has columns, and those must align too.
	ncols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Func runs one experiment and returns its tables.
type Func func(Config) []*Table

// registry maps experiment ids to their functions; populated by init() in
// the per-area files.
var registry = map[string]Func{}

func register(id string, f Func) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = f
}

// IDs returns all registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) ([]*Table, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
			id, strings.Join(IDs(), ", "))
	}
	return f(cfg), nil
}

// mustFinite guards an aggregation input against NaN: sort.Float64s orders
// NaNs first, so a single NaN silently shifts every percentile rank. An
// experiment must fail loudly rather than render a figure from corrupted
// order statistics. It returns xs for call-site chaining.
func mustFinite(where string, xs []float64) []float64 {
	if stats.HasNaN(xs) {
		panic(fmt.Sprintf("experiments: NaN in %s aggregation input", where))
	}
	return xs
}

// formatting helpers shared by the experiment files.

func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
func d(v int) string       { return fmt.Sprintf("%d", v) }
