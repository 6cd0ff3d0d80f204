// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload in a single process, drives the
// library the way fgrepro, fgfleet and fgservd do, verifies every output it
// timed, and prints its metrics. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with -trace 1 tracing is switched on, spans are recorded
// around the calls into each module's public functions, and the metrics are
// the per-layer ones ("per_layer"). The lines before it are a human-readable
// report: host facts, the seed, and every figure with its unit and the
// number of samples behind it.
//
// Usage (from the repository root; run.sh builds and execs the binary):
//
//	bash perfbench/run.sh --workload battery --seed 1 --seconds 10 --trace 0
//
// Workloads are listed in README.md next to this file, with the reason each
// was chosen and the layers it is predicted to load.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one named traffic mix: run executes set-up, the timed phase
// and verification, and returns what it measured.
type workload struct {
	name string
	run  func(h *harness) (*outcome, error)
}

// workloads lists every workload the -workload flag accepts.
var workloads = []workload{
	{"battery", runBattery},
	{"fleet", runFleet},
	{"serve-miss", runServeMiss},
	{"serve-hit", runServeHit},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run is the testable entry point: flags in, report out, exit status back.
// 0 means every timed output verified; 1 means a verification failed or the
// workload could not run; 2 is a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	probeStart, _ := hostProbeMs()
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: battery, fleet, serve-miss or serve-hit")
	seed := fs.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	spansPath := fs.String("spans", "", "with -trace 1, write the spans as JSON Lines to this file (default .bench_build/perfbench-spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	h := &harness{
		seed:    *seed,
		seconds: *seconds,
		minOps:  1,
		setups:  defaultSetups,
		start:   start,
		size:    defaultSizes(*seconds),
	}
	if *traceFlag == 1 {
		h.rec = newRecorder(start)
		// One traced and one untraced op at least, so every traced run
		// measures its own overhead.
		h.minOps = 2
	}
	res, err := runWorkload(w, h)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	probeEnd, _ := hostProbeMs()
	res.probeMs = [2]float64{probeStart, probeEnd}
	if h.rec != nil {
		path := *spansPath
		if path == "" {
			path = fmt.Sprintf(".bench_build/perfbench-spans-%s-%d.jsonl", w.name, *seed)
		}
		if err := h.rec.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", h.rec.len(), path)
	}
	if err := report(stdout, w.name, h, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, f)
	}
	if !res.correct() {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkload runs w and stamps the process-wide figures that belong to
// the whole run: peak RSS at exit.
func runWorkload(w workload, h *harness) (*outcome, error) {
	res, err := w.run(h)
	if err != nil {
		return nil, err
	}
	res.peakRSSMB, err = peakRSSMB()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and then the JSON result line.
func report(w io.Writer, name string, h *harness, res *outcome) error {
	var b strings.Builder
	fmt.Fprintf(&b, "workload: %s  seed: %d  seconds: %g  trace: %t\n", name, h.seed, h.seconds, h.rec != nil)
	fmt.Fprintf(&b, "host: %s probe_ms=%.3g/%.3g\n", hostFacts(), res.probeMs[0], res.probeMs[1])
	fmt.Fprintf(&b, "ops: attempted %d, failed %d, fail_ratio %.4g\n",
		res.attempted, res.failed, res.failRatio())
	for _, c := range res.checkFailures {
		fmt.Fprintf(&b, "check failed: %s\n", c)
	}
	out := result{
		Correct:   res.correct(),
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue),
	}
	if h.rec == nil {
		e2e := res.endToEnd()
		for _, s := range endToEndSpecs {
			v := e2e[s.name]
			fmt.Fprintf(&b, "end-to-end %-14s %14.6g %-6s n=%d (%s)\n", s.name, v.value, s.unit, v.n, v.of)
			out.Metrics[s.name] = metricValue{Value: v.value, Unit: s.unit}
		}
		for _, m := range res.named {
			fmt.Fprintf(&b, "  %-24s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		}
		if len(res.opMs) <= maxListedOps {
			fmt.Fprintf(&b, "  %s ms: %s\n", res.opOf, joinFloats(res.opMs))
		}
		fmt.Fprintf(&b, "  set-up s: %s\n", joinFloats(res.setupS))
	} else {
		for _, s := range perLayerSpecs {
			v := res.layers.get(s.name)
			fmt.Fprintf(&b, "per-layer %-28s %14.6g %-8s n=%d\n", s.name, v.value, s.unit, v.n)
			out.Metrics[s.name] = metricValue{Value: v.value, Unit: s.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// maxListedOps bounds the op latencies listed one by one in the report.
const maxListedOps = 64

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// hostProbeMs times a fixed CPU-only loop that runs no repository code,
// median of five, so each report shows how fast the host ran around the
// measurement: on a shared host, a shift in every workload's times that
// the probe shifts with too is the host, not the program. The checksum
// keeps the loop from being optimised away.
func hostProbeMs() (float64, uint64) {
	var times [5]float64
	var sum uint64
	for i := range times {
		start := time.Now()
		s := uint64(i)
		for j := 0; j < 1<<22; j++ {
			sum ^= splitmix(&s)
		}
		times[i] = ms(time.Since(start))
	}
	return median(times[:]), sum
}

// hostFacts renders the facts every number depends on.
func hostFacts() string {
	facts := []string{
		fmt.Sprintf("numcpu=%d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"os=" + runtime.GOOS + "/" + runtime.GOARCH,
	}
	for _, k := range []string{"GOGC", "GOMEMLIMIT", "GODEBUG"} {
		if v, ok := os.LookupEnv(k); ok {
			facts = append(facts, k+"="+v)
		}
	}
	return strings.Join(facts, " ")
}

// outcome is what one workload run measured.
type outcome struct {
	// setupS holds each set-up's duration; the median is setup_s.
	setupS []float64
	// opMs holds the latency of every timed op that succeeded.
	opMs []float64
	// opOf names the op in the report ("battery", "campaign", ...).
	opOf string
	// attempted/failed count timed ops.
	attempted, failed int
	// failures keeps the first few op failure messages for stderr.
	failures []string
	// checkFailures lists failed untimed checks (set-up, decode round trip).
	checkFailures []string
	// named are the workload's end-to-end figures under their descriptive
	// names (battery_s, fleet_ues_per_s, serve_miss_ms_p50, ...).
	named []figure
	// layers holds the per-layer metrics of a traced run.
	layers *layers
	// peakRSSMB is VmHWM at exit.
	peakRSSMB float64
	// counters classify serve failures.
	counters serveCounters
	// digest fingerprints the verified artifacts of the warm-up op, so
	// tests can check that the seed reaches the program.
	digest string
	// addr is the serve listener's address; tests dial it after the run.
	addr string
	// probeMs is hostProbeMs before and after the run.
	probeMs [2]float64
}

// maxFailureMessages bounds how many op failures are kept for stderr.
const maxFailureMessages = 8

// fail counts one failed op and keeps its message.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < maxFailureMessages {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds another outcome's timed-op counts into o.
func (o *outcome) merge(other outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	for _, f := range other.failures {
		if len(o.failures) < maxFailureMessages {
			o.failures = append(o.failures, f)
		}
	}
	o.opMs = append(o.opMs, other.opMs...)
	o.counters.rejected += other.counters.rejected
	o.counters.incomplete += other.counters.incomplete
	o.counters.mismatched += other.counters.mismatched
}

// checkFail records a failed untimed check.
func (o *outcome) checkFail(format string, args ...any) {
	o.checkFailures = append(o.checkFailures, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool {
	return o.failed == 0 && len(o.checkFailures) == 0 && o.attempted > 0
}

func (o *outcome) failRatio() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// figure is one reported value with its unit and sample count.
type figure struct {
	name  string
	value float64
	unit  string
	n     int
	of    string
}

// endToEnd computes the BENCHMARK.json end-to-end metrics.
func (o *outcome) endToEnd() map[string]figure {
	return map[string]figure{
		"op_ms_p50":   {value: median(o.opMs), n: len(o.opMs), of: o.opOf},
		"setup_s":     {value: median(o.setupS), n: len(o.setupS), of: "set-ups"},
		"peak_rss_mb": {value: o.peakRSSMB, n: 1, of: "process"},
	}
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
