package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fivegsim/internal/obs"
)

// Result is one executed experiment with its campaign accounting.
type Result struct {
	// ID is the experiment id the tables came from.
	ID string
	// Tables are the rendered results, identical to what Run(ID, cfg)
	// returns for the same Config.
	Tables []*Table
	// Wall is the host wall-clock time the experiment took.
	Wall time.Duration
	// Events is the number of simulation events the experiment processed
	// (the RRC deadlines its state machines fired).
	Events uint64
	// Obs holds the experiment's trace/metric collector when the run's
	// Config had one; nil otherwise. Each experiment gets its own, so
	// artifacts concatenate in id order independent of scheduling.
	Obs *obs.Obs
}

// Render returns the experiment's tables concatenated, each rendered
// exactly as the fgrepro CLI prints them.
func (r Result) Render() string {
	var b strings.Builder
	for _, t := range r.Tables {
		b.WriteString(t.String())
	}
	return b.String()
}

// RunMany executes the given experiments over a bounded worker pool and
// returns results in the order of ids, regardless of which worker finished
// first. workers <= 0 selects GOMAXPROCS. Unknown ids fail up front, before
// any experiment runs.
//
// Parallel execution is deterministic: every experiment builds its own
// models and gets its own event counter (nothing is shared between
// experiments), and all randomness flows from cfg.Seed, so the tables are
// byte-identical to a serial run with the same Config — only Wall varies
// between runs.
func RunMany(cfg Config, ids []string, workers int) ([]Result, error) {
	return RunManyCtx(context.Background(), cfg, ids, workers)
}

// RunManyCtx is RunMany with cooperative cancellation: when ctx is done, no
// further experiment is dispatched — workers finish the experiment they are
// on (experiments are pure compute between reduce steps; there is nothing
// mid-experiment to interrupt safely) and RunManyCtx returns ctx's error
// with nil results. A nil error guarantees every requested experiment ran,
// so partial batteries can never masquerade as complete ones.
func RunManyCtx(ctx context.Context, cfg Config, ids []string, workers int) ([]Result, error) {
	fns := make([]Func, len(ids))
	for i, id := range ids {
		f, ok := registry[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
				id, strings.Join(IDs(), ", "))
		}
		fns[i] = f
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	results := make([]Result, len(ids))
	order := scheduleOrder(ids)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				// Collection is per experiment: workers must never share a
				// collector, and a per-experiment registry lets artifacts
				// concatenate in id order whatever the schedule was.
				cfgI := cfg
				if cfg.Obs != nil {
					cfgI.Obs = obs.New()
				}
				var events uint64
				cfgI.events = &events
				start := time.Now() //fgvet:allow walltime worker wall-clock stats for LPT scheduling, never sim time
				tables := fns[i](cfgI)
				cfgI.Obs.Meter().Add("experiment.events", float64(events))
				results[i] = Result{
					ID:     ids[i],
					Tables: tables,
					Wall:   time.Since(start), //fgvet:allow walltime worker wall-clock stats for LPT scheduling, never sim time
					Events: events,
					Obs:    cfgI.Obs,
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiments: battery canceled: %w", err)
	}
	return results, nil
}

// expectedWallMs is the static longest-processing-time weight table seeded
// from a recorded full-battery run (scripts/bench.sh). The values only need
// to rank the experiments, not predict them: dispatching the long poles
// first keeps the last worker from starting a 700 ms experiment when every
// other worker has already drained its queue.
var expectedWallMs = map[string]float64{
	"fleet":                     1400,
	"fig18a":                    763,
	"fig24":                     698,
	"fig17":                     421,
	"fig6":                      113,
	"fig7":                      111,
	"ablation-chunk-buffer":     109,
	"fig3":                      102,
	"fig23":                     100,
	"fig4":                      99,
	"fig18b":                    72,
	"fig18c":                    40,
	"table4":                    38,
	"ablation-switch-threshold": 28,
	"fig16":                     27,
	"fig15":                     26,
	"fig1":                      22,
	"fig8":                      21,
	"longitudinal":              21,
	"extension-abandon":         20,
	"fig9":                      5.3,
	"validation":                4.3,
	"fig25":                     3.3,
	"extension-bbr":             3.1,
	"table7":                    2.4,
	"ablation-wmem":             2.2,
	"fig22":                     2.1,
	"table6":                    2,
	"fig10":                     1.6,
	"fig13":                     1.1,
	"fig14":                     0.75,
	"fig20":                     0.66,
	"table9":                    0.33,
	"table5":                    0.32,
	"fig19":                     0.27,
	"fig21":                     0.2,
	"table1":                    0.09,
	"fig11":                     0.07,
	"fig2":                      0.06,
	"table8":                    0.06,
	"ablation-tail":             0.05,
	"fig27":                     0.04,
	"table3":                    0.04,
	"fig26":                     0.04,
	"table2":                    0.03,
	"fig5":                      0.03,
	"extension-midband":         0.03,
	"fig12":                     0.025,
}

// defaultWallMs is assumed for experiments missing from the table, placing
// new (unmeasured) experiments mid-queue rather than last.
const defaultWallMs = 50

// scheduleOrder returns the dispatch order of the given experiments:
// longest expected runtime first, original position as a deterministic
// tie-break. Results are still written at each experiment's original index,
// so output order never depends on scheduling.
func scheduleOrder(ids []string) []int {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	weight := func(i int) float64 {
		if w, ok := expectedWallMs[ids[i]]; ok {
			return w
		}
		return defaultWallMs
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weight(order[a]) > weight(order[b])
	})
	return order
}

// RunAllParallel executes every registered experiment over a worker pool
// (workers <= 0 selects GOMAXPROCS) and returns results in sorted id order,
// with tables byte-identical to RunAll(cfg).
func RunAllParallel(cfg Config, workers int) []Result {
	results, err := RunMany(cfg, IDs(), workers)
	if err != nil {
		// Unreachable: IDs() only returns registered experiments.
		panic(err)
	}
	return results
}
