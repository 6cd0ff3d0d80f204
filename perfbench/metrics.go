package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fivegsim/internal/trace"
)

// spec names one metric of BENCHMARK.json with its unit.
type spec struct {
	name string
	unit string
}

// endToEndSpecs are the metrics of an untraced run, in print order. Every
// workload reports all of them; "op" is the workload's unit of work (a
// battery, a campaign, a served request). Each workload's p90 is printed in
// the report but not bounded: battery and fleet runs hold too few ops for
// ten to lie beyond it.
var endToEndSpecs = []spec{
	{"op_ms_p50", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerSpecs are the metrics of a traced run, in print order. Every
// traced run prints all of them; a layer the workload does not reach
// reads 0.
var perLayerSpecs = []spec{
	{"experiments.perf_s", "s"},
	{"experiments.rrcpower_s", "s"},
	{"experiments.powerfit_s", "s"},
	{"experiments.video_s", "s"},
	{"experiments.webexp_s", "s"},
	{"experiments.ablations_s", "s"},
	{"experiments.fleet_s", "s"},
	{"experiments.fig17_s", "s"},
	{"experiments.pool_idle_s", "s"},
	{"experiments.render_s", "s"},
	{"colf.encode_s", "s"},
	{"colf.trace_mb", "MB"},
	{"obs.metrics_csv_s", "s"},
	{"sim.events", "count"},
	{"fleet.events", "count"},
	{"trace.generations", "count"},
	{"fleet.run_s.low-band", "s"},
	{"fleet.run_s.mmwave", "s"},
	{"fleet.run_s.mixed", "s"},
	{"fleet.events_per_s", "1/s"},
	{"fleet.spill_close_s", "s"},
	{"experiments.fleet_table_s", "s"},
	{"serve.generate_ms_p50", "ms"},
	{"serve.miss_overhead_ms_p50", "ms"},
	{"serve.miss_ttfb_ms_p50", "ms"},
	{"serve.miss_handler_ms_p50", "ms"},
	{"serve.hit_handler_ms_p50", "ms"},
	{"serve.hit_client_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "fraction"},
	{"serve.rejected", "count"},
	{"serve.incomplete", "count"},
	{"serve.mismatched", "count"},
	{"serve.cache_entries", "count"},
	{"serve.miss_kb", "KB"},
	{"serve.hit_kb", "KB"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_s", "s"},
	{"runtime.core_util", "fraction"},
	{"runtime.heap_live_mb", "MB"},
	{"harness.trace_overhead", "fraction"},
	{"harness.unaccounted_share", "fraction"},
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ru syscall.Rusage
		if rerr := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); rerr != nil {
			return 0, fmt.Errorf("peak RSS: %v; %v", err, rerr)
		}
		return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// usage is a snapshot of the process-wide runtime counters that per-op
// runtime.* metrics are deltas of.
type usage struct {
	wall    time.Time
	alloc   uint64
	gcs     uint32
	pauseNs uint64
	cpu     time.Duration
	gens    int64
}

func snapshot() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return usage{
		wall:    time.Now(),
		alloc:   m.TotalAlloc,
		gcs:     m.NumGC,
		pauseNs: m.PauseTotalNs,
		cpu:     cpu,
		gens:    trace.DefaultCache.Generations(),
	}
}

// runtimeDelta is the runtime cost of some ops, per op.
type runtimeDelta struct {
	allocMB, gcCycles, gcPauseMs, cpuS, coreUtil float64
}

// perOp divides the counters between two snapshots over n ops.
func perOp(a, b usage, n int) runtimeDelta {
	if n <= 0 {
		n = 1
	}
	wall := b.wall.Sub(a.wall).Seconds()
	cpu := (b.cpu - a.cpu).Seconds()
	d := runtimeDelta{
		allocMB:   float64(b.alloc-a.alloc) / 1e6 / float64(n),
		gcCycles:  float64(b.gcs-a.gcs) / float64(n),
		gcPauseMs: float64(b.pauseNs-a.pauseNs) / 1e6 / float64(n),
		cpuS:      cpu / float64(n),
	}
	if wall > 0 {
		d.coreUtil = cpu / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	return d
}

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// layers collects the per-layer metrics of a traced run.
type layers struct {
	vals map[string]figure
}

func newLayers() *layers { return &layers{vals: make(map[string]figure)} }

// set records a per-layer value and the number of samples behind it.
func (l *layers) set(name string, v float64, n int) {
	l.vals[name] = figure{name: name, value: v, n: n}
}

// median records the median of per-op samples.
func (l *layers) median(name string, xs []float64) {
	l.set(name, median(xs), len(xs))
}

// runtimeMedians records the runtime.* metrics as medians over per-op
// deltas.
func (l *layers) runtimeMedians(ds []runtimeDelta) {
	pick := func(f func(runtimeDelta) float64) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = f(d)
		}
		return out
	}
	l.median("runtime.alloc_mb", pick(func(d runtimeDelta) float64 { return d.allocMB }))
	l.median("runtime.gc_cycles", pick(func(d runtimeDelta) float64 { return d.gcCycles }))
	l.median("runtime.gc_pause_ms", pick(func(d runtimeDelta) float64 { return d.gcPauseMs }))
	l.median("runtime.cpu_s", pick(func(d runtimeDelta) float64 { return d.cpuS }))
	l.median("runtime.core_util", pick(func(d runtimeDelta) float64 { return d.coreUtil }))
}

// get returns a metric's value, or a zero figure when the workload does
// not reach that layer.
func (l *layers) get(name string) figure {
	if l == nil {
		return figure{}
	}
	return l.vals[name]
}

// overhead compares traced with untraced op latencies from one run:
// median(traced) / median(untraced) - 1.
func overhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	base := median(untraced)
	if base == 0 {
		return 0
	}
	return median(traced)/base - 1
}
