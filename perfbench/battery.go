package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"

	"fivegsim/internal/experiments"
	"fivegsim/internal/obs"
	"fivegsim/internal/obs/colf"
	"fivegsim/internal/trace"
)

// hashSink is the in-memory artifact writer: it hashes and counts what an
// artifact writer emits, so artifacts are verified without touching disk.
type hashSink struct {
	h hash.Hash
	n int64
}

func (s *hashSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	return s.h.Write(p)
}

func (s *hashSink) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

// sink returns the writer for one artifact of op and the hash behind it;
// the fault seam may wrap the writer.
func (h *harness) sink(op int, artifact string) (io.Writer, *hashSink) {
	hs := &hashSink{h: sha256.New()}
	if h.faults.sink != nil {
		return h.faults.sink(op, artifact, hs), hs
	}
	return hs, hs
}

// digests fingerprints one op's artifacts.
type digests struct {
	tables, trace, metrics string
}

func (d digests) String() string {
	return d.tables[:12] + "/" + d.trace[:12] + "/" + d.metrics[:12]
}

// batteryTimes are the child spans of one battery op.
type batteryTimes struct {
	runMany, render, encode, metricsCSV time.Duration
	traceBytes                          int64
}

// batteryOp runs one battery exactly as `fgrepro -parallel 0 -trace-format
// colf -trace T -metrics M all` does: RunManyCtx over GOMAXPROCS workers,
// every table rendered, then the colf trace and the metrics CSV, each into
// a hashing writer. A nil rec runs it untraced.
func batteryOp(h *harness, op int, ids []string, rec *recorder, root int64) (rs []experiments.Result, d digests, t batteryTimes, err error) {
	defer recoverOp(&err)
	cfg := experiments.Config{Seed: h.seed, Quick: h.size.batteryQuick, Obs: obs.New()}
	t.runMany, err = rec.timed("experiments.RunManyCtx", int64(op), root, func() error {
		var err error
		rs, err = experiments.RunManyCtx(context.Background(), cfg, ids, 0)
		return err
	})
	if err != nil {
		return nil, digests{}, t, err
	}
	tw, ts := h.sink(op, "table")
	t.render, err = rec.timed("experiments.Table.String", int64(op), root, func() error {
		for _, r := range rs {
			for _, tb := range r.Tables {
				// fgrepro prints each table with fmt.Fprintln.
				if _, err := io.WriteString(tw, tb.String()+"\n"); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, digests{}, t, fmt.Errorf("rendering tables: %w", err)
	}
	trw, trs := h.sink(op, "trace")
	t.encode, err = rec.timed("experiments.WriteTraceColf", int64(op), root, func() error {
		return experiments.WriteTraceColf(trw, rs)
	})
	if err != nil {
		return nil, digests{}, t, fmt.Errorf("writing colf trace: %w", err)
	}
	mw, mhs := h.sink(op, "metrics")
	t.metricsCSV, err = rec.timed("experiments.WriteMetrics", int64(op), root, func() error {
		return experiments.WriteMetrics(mw, rs)
	})
	if err != nil {
		return nil, digests{}, t, fmt.Errorf("writing metrics: %w", err)
	}
	t.traceBytes = trs.n
	return rs, digests{tables: ts.sum(), trace: trs.sum(), metrics: mhs.sum()}, t, nil
}

// recoverOp turns a panic on an op's own goroutine into the op's error, so
// it counts as a failed op. A panic on a goroutine the op starts still ends
// the process.
func recoverOp(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// checkTables verifies that every experiment returned at least one table
// with at least one row.
func checkTables(ids []string, rs []experiments.Result) error {
	if len(rs) != len(ids) {
		return fmt.Errorf("%d results for %d experiments", len(rs), len(ids))
	}
	for i, r := range rs {
		if r.ID != ids[i] {
			return fmt.Errorf("result %d is %q, want %q", i, r.ID, ids[i])
		}
		rows := 0
		for _, t := range r.Tables {
			rows += len(t.Rows)
		}
		if rows == 0 {
			return fmt.Errorf("experiment %s returned no table rows", r.ID)
		}
	}
	return nil
}

// checkColfRoundTrip verifies, untimed, that the colf trace decodes to
// exactly the JSON Lines that WriteTrace writes.
func checkColfRoundTrip(rs []experiments.Result) error {
	var enc bytes.Buffer
	if err := experiments.WriteTraceColf(&enc, rs); err != nil {
		return err
	}
	decoded := &hashSink{h: sha256.New()}
	if err := colf.DecodeToJSON(&enc, decoded); err != nil {
		return fmt.Errorf("decoding colf trace: %w", err)
	}
	direct := &hashSink{h: sha256.New()}
	if err := experiments.WriteTrace(direct, rs); err != nil {
		return err
	}
	if decoded.n != direct.n || decoded.sum() != direct.sum() {
		return fmt.Errorf("colf trace decodes to %d bytes (%s), WriteTrace writes %d bytes (%s)",
			decoded.n, decoded.sum()[:12], direct.n, direct.sum()[:12])
	}
	return nil
}

// experimentGroupNames are the per-layer groups of battery experiment time,
// one per source file of internal/experiments (handoff.go counts as perf,
// extensions.go as ablations).
var experimentGroupNames = []string{"perf", "rrcpower", "powerfit", "video", "webexp", "ablations", "fleet"}

var registerCall = regexp.MustCompile(`\bregister\("([^"]+)"`)

// experimentGroups maps each experiment id to the source file that
// registers it, read from the module's internal/experiments directory.
func experimentGroups() (map[string]string, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	files, err := filepath.Glob(filepath.Join(root, "internal", "experiments", "*.go"))
	if err != nil {
		return nil, err
	}
	groups := make(map[string]string)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		group := strings.TrimSuffix(filepath.Base(f), ".go")
		switch group {
		case "handoff":
			group = "perf"
		case "extensions":
			group = "ablations"
		}
		for _, m := range registerCall.FindAllSubmatch(src, -1) {
			groups[string(m[1])] = group
		}
	}
	return groups, nil
}

// moduleRoot finds the directory holding go.mod, from the working
// directory up.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// runBattery is the battery workload: one client runs full batteries back
// to back.
func runBattery(h *harness) (*outcome, error) {
	ids := h.size.batteryIDs
	if ids == nil {
		ids = experiments.IDs()
	}
	out := &outcome{opOf: "battery"}
	var groups map[string]string
	if h.rec != nil {
		var err error
		if groups, err = experimentGroups(); err != nil {
			return nil, fmt.Errorf("grouping experiments by source file: %w", err)
		}
	}

	// Set-up: a fresh trace cache and one untimed warm-up battery, several
	// times; the first is timed from process start.
	var ref digests
	for k := 0; k < h.setups; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = h.start
		}
		resetTraceCache()
		rs, d, _, err := batteryOp(h, -1-k, ids, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("warm-up battery: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		if err := checkTables(ids, rs); err != nil {
			out.checkFail("warm-up battery %d: %v", k, err)
		}
		if k == 0 {
			ref = d
		} else if d != ref {
			out.checkFail("warm-up battery %d artifacts %s differ from the first warm-up's %s", k, d, ref)
		}
		// Once per run, on the last warm-up: no set-up holds a previous
		// battery's results, which would raise the GC target of the next.
		if k == h.setups-1 {
			if err := checkColfRoundTrip(rs); err != nil {
				out.checkFail("colf round trip: %v", err)
			}
		}
	}
	out.digest = ref.String()

	var (
		traced, untraced []float64
		groupS           = make(map[string][]float64)
		fig17, idle      []float64
		render, encode   []float64
		metricsCSV, mb   []float64
		events, unacc    []float64
		deltas           []runtimeDelta
		gens             []float64
		heapMax          float64
	)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ids) {
		workers = len(ids)
	}
	gens0 := trace.DefaultCache.Generations()
	t0 := time.Now()
	for k := 0; !h.timedOut(t0, k); k++ {
		var rec *recorder
		var root int64
		if h.tracing(k) {
			rec, root = h.rec, h.rec.newID()
		}
		var u0 usage
		if h.rec != nil {
			u0 = snapshot()
		}
		start := time.Now()
		rs, d, t, err := batteryOp(h, k, ids, rec, root)
		end := time.Now()
		lat := end.Sub(start)
		out.attempted++
		if rec != nil {
			rec.add(root, 0, int64(k), "battery", start, end)
		}
		if err == nil {
			err = checkTables(ids, rs)
		}
		switch {
		case err != nil:
			out.fail("battery %d: %v", k, err)
			continue
		case d != ref:
			out.fail("battery %d artifacts %s differ from the warm-up's %s", k, d, ref)
			continue
		}
		out.opMs = append(out.opMs, ms(lat))
		if h.rec == nil {
			continue
		}
		u1 := snapshot()
		deltas = append(deltas, perOp(u0, u1, 1))
		gens = append(gens, float64(u1.gens-u0.gens))
		if rec == nil {
			untraced = append(untraced, ms(lat))
		} else {
			traced = append(traced, ms(lat))
			perGroup := make(map[string]float64)
			var wall time.Duration
			var ev uint64
			for _, r := range rs {
				perGroup[groups[r.ID]] += r.Wall.Seconds()
				wall += r.Wall
				ev += r.Events
				if r.ID == "fig17" {
					fig17 = append(fig17, r.Wall.Seconds())
				}
			}
			for _, g := range experimentGroupNames {
				groupS[g] = append(groupS[g], perGroup[g])
			}
			idle = append(idle, float64(workers)*t.runMany.Seconds()-wall.Seconds())
			render = append(render, t.render.Seconds())
			encode = append(encode, t.encode.Seconds())
			mb = append(mb, float64(t.traceBytes)/1e6)
			metricsCSV = append(metricsCSV, t.metricsCSV.Seconds())
			events = append(events, float64(ev))
			children := t.runMany + t.render + t.encode + t.metricsCSV
			unacc = append(unacc, 1-children.Seconds()/lat.Seconds())
		}
		// rs is dead from here on, so this measures what stays live
		// between ops rather than this op's results.
		if heap := heapLiveMB(); heap > heapMax {
			heapMax = heap
		}
	}
	out.named = []figure{
		{name: "battery_s", value: median(out.opMs) / 1e3, unit: "s", n: len(out.opMs)},
		{name: "battery_s_p90", value: quantile(sortedCopy(out.opMs), 0.9) / 1e3, unit: "s", n: len(out.opMs)},
		{name: "trace_generations", value: float64(trace.DefaultCache.Generations() - gens0), unit: "count", n: out.attempted},
		{name: "fail_ratio", value: out.failRatio(), unit: "fraction", n: out.attempted},
	}
	if h.rec == nil {
		return out, nil
	}
	l := newLayers()
	for _, g := range experimentGroupNames {
		l.median("experiments."+g+"_s", groupS[g])
	}
	l.median("experiments.fig17_s", fig17)
	l.median("experiments.pool_idle_s", idle)
	l.median("experiments.render_s", render)
	l.median("colf.encode_s", encode)
	l.median("colf.trace_mb", mb)
	l.median("obs.metrics_csv_s", metricsCSV)
	l.median("sim.events", events)
	l.runtimeMedians(deltas)
	l.median("trace.generations", gens)
	l.set("runtime.heap_live_mb", heapMax, len(deltas))
	l.set("harness.trace_overhead", overhead(traced, untraced), len(traced)+len(untraced))
	l.median("harness.unaccounted_share", unacc)
	out.layers = l
	return out, nil
}
