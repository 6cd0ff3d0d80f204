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

// RunManyCtx executes the given experiments over a bounded worker pool and
// returns results in the order of ids, regardless of which worker finished
// first. workers <= 0 selects GOMAXPROCS; 1 runs them one after another.
// Unknown ids fail up front, before any experiment runs.
//
// Parallel execution is deterministic: every experiment builds its own
// models and gets its own event counter (nothing is shared between
// experiments), and all randomness flows from cfg.Seed, so the tables are
// byte-identical to Run(id, cfg) for each id — only Wall varies between
// runs.
//
// Cancellation is cooperative: when ctx is done, no further experiment is
// dispatched — workers finish the experiment they are on (experiments are
// pure compute between reduce steps; there is nothing mid-experiment to
// interrupt safely) and RunManyCtx returns ctx's error with nil results. A
// nil error guarantees every requested experiment ran, so partial batteries
// can never masquerade as complete ones.
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

// expectedWallMs is the static longest-processing-time weight table: each
// experiment's median wall time, in ms, over three serial full-mode runs
// of `fgrepro -parallel 1 -stats all` (seed 1, 2-vCPU x86-64 host),
// rounded to three significant digits (two below 10 ms). Regenerate it
// the same way when an experiment's cost moves. The values only need to
// rank the experiments, not predict them: dispatching the long poles first
// keeps the last worker from starting a 650 ms experiment when every other
// worker has already drained its queue.
var expectedWallMs = map[string]float64{
	"fig17":                     671,
	"fig24":                     222,
	"fig18a":                    206,
	"fleet":                     148,
	"fig18b":                    102,
	"ablation-chunk-buffer":     100,
	"fig23":                     85.5,
	"fig16":                     72.9,
	"fig15":                     66.6,
	"fig7":                      65.8,
	"fig6":                      62.6,
	"fig9":                      53,
	"fig4":                      51.1,
	"fig18c":                    45.8,
	"fig3":                      43.8,
	"extension-abandon":         40.8,
	"table4":                    39.5,
	"table6":                    26.2,
	"ablation-switch-threshold": 25.4,
	"fig22":                     22.4,
	"fig8":                      18.5,
	"validation":                10.7,
	"fig13":                     8.7,
	"fig25":                     7.5,
	"extension-bbr":             7.5,
	"fig14":                     6.1,
	"longitudinal":              5.5,
	"table7":                    5.5,
	"fig20":                     5.1,
	"fig19":                     5,
	"fig1":                      5,
	"fig10":                     3.8,
	"fig21":                     2.9,
	"ablation-wmem":             2.4,
	"table5":                    1.2,
	"table9":                    0.36,
	"table1":                    0.06,
	"fig11":                     0.04,
	"table8":                    0.04,
	"ablation-tail":             0.03,
	"fig12":                     0.03,
	"table3":                    0.03,
	"fig26":                     0.02,
	"table2":                    0.02,
	"extension-midband":         0.01,
	"fig2":                      0.01,
	"fig27":                     0.01,
	"fig5":                      0.01,
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
