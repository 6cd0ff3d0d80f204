package main

import (
	"fmt"
	"io"
	"time"

	"fivegsim/internal/experiments"
	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
)

// fleetTimes are the child spans of one campaign op.
type fleetTimes struct {
	run               []time.Duration // one per mix, in fleet.AllMixes order
	table, spill, csv time.Duration
	events            uint64
}

// fleetOp runs one campaign exactly as `fgfleet -trace T -metrics M` does
// with defaults: every mix at the default population, exact mode,
// GOMAXPROCS shards, the JSONL trace spilled by the shards, the table, then
// the metrics CSV, each into a hashing writer. A nil rec runs it untraced.
func fleetOp(h *harness, op int, rec *recorder, root int64) (d digests, t fleetTimes, err error) {
	defer recoverOp(&err)
	t.run = make([]time.Duration, len(fleet.AllMixes))
	rootObs := obs.New()
	tw, ts := h.sink(op, "table")
	trw, trs := h.sink(op, "trace")
	mw, mhs := h.sink(op, "metrics")
	spill := fleet.NewJSONLSpill(trw, "fleet")
	rs := make([]*fleet.Result, 0, len(fleet.AllMixes))
	ues := 0
	for i, mix := range fleet.AllMixes {
		sub := obs.Sub(rootObs)
		cfg := fleet.Config{
			Seed:      h.seed,
			UEs:       h.size.fleetUEs,
			Mix:       mix,
			WindowS:   600,
			SessionS:  32,
			Obs:       sub,
			Spill:     spill,
			SpillTags: []obs.Field{obs.S("mix", mix.String())},
		}
		var r *fleet.Result
		t.run[i], err = rec.timed("fleet.Run", int64(op), root, func() error {
			var err error
			r, err = fleet.Run(cfg)
			return err
		})
		if err != nil {
			return digests{}, t, fmt.Errorf("campaign %s: %w", mix, err)
		}
		rootObs.MergeTagged(sub, obs.S("mix", mix.String()))
		rs = append(rs, r)
		t.events += r.Events
		ues += len(r.UEs)
	}
	if want := len(fleet.AllMixes) * h.size.fleetUEs; ues != want {
		return digests{}, t, fmt.Errorf("campaign returned %d UE results, want %d", ues, want)
	}
	t.table, err = rec.timed("experiments.FleetTable", int64(op), root, func() error {
		// fgfleet prints the table with fmt.Fprintln.
		_, err := io.WriteString(tw, experiments.FleetTable(rs).String()+"\n")
		return err
	})
	if err != nil {
		return digests{}, t, fmt.Errorf("rendering table: %w", err)
	}
	t.spill, err = rec.timed("fleet.Spill.Close", int64(op), root, spill.Close)
	if err != nil {
		return digests{}, t, fmt.Errorf("closing trace spill: %w", err)
	}
	t.csv, err = rec.timed("obs.WriteMetricsCSV", int64(op), root, func() error {
		return obs.WriteMetricsCSV(mw, "fleet", rootObs.Meter())
	})
	if err != nil {
		return digests{}, t, fmt.Errorf("writing metrics: %w", err)
	}
	return digests{tables: ts.sum(), trace: trs.sum(), metrics: mhs.sum()}, t, nil
}

// runFleet is the fleet workload: one client runs campaigns back to back.
func runFleet(h *harness) (*outcome, error) {
	out := &outcome{opOf: "campaign"}
	var ref digests
	for k := 0; k < h.setups; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = h.start
		}
		resetTraceCache()
		d, _, err := fleetOp(h, -1-k, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("warm-up campaign: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		if k == 0 {
			ref = d
		} else if d != ref {
			out.checkFail("warm-up campaign %d artifacts %s differ from the first warm-up's %s", k, d, ref)
		}
	}
	out.digest = ref.String()

	var (
		traced, untraced []float64
		runS             = make([][]float64, len(fleet.AllMixes))
		events, evRate   []float64
		table, spill     []float64
		csv, unacc       []float64
		deltas           []runtimeDelta
		gens             []float64
		heapMax          float64
	)
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
		d, t, err := fleetOp(h, k, rec, root)
		end := time.Now()
		lat := end.Sub(start)
		out.attempted++
		if rec != nil {
			rec.add(root, 0, int64(k), "campaign", start, end)
		}
		if err != nil {
			out.fail("campaign %d: %v", k, err)
			continue
		}
		if d != ref {
			out.fail("campaign %d artifacts %s differ from the warm-up's %s", k, d, ref)
			continue
		}
		out.opMs = append(out.opMs, ms(lat))
		if h.rec == nil {
			continue
		}
		u1 := snapshot()
		deltas = append(deltas, perOp(u0, u1, 1))
		gens = append(gens, float64(u1.gens-u0.gens))
		if heap := heapLiveMB(); heap > heapMax {
			heapMax = heap
		}
		if rec == nil {
			untraced = append(untraced, ms(lat))
			continue
		}
		traced = append(traced, ms(lat))
		var runTotal time.Duration
		for i, r := range t.run {
			runS[i] = append(runS[i], r.Seconds())
			runTotal += r
		}
		events = append(events, float64(t.events))
		evRate = append(evRate, float64(t.events)/runTotal.Seconds())
		table = append(table, t.table.Seconds())
		spill = append(spill, t.spill.Seconds())
		csv = append(csv, t.csv.Seconds())
		children := runTotal + t.table + t.spill + t.csv
		unacc = append(unacc, 1-children.Seconds()/lat.Seconds())
	}
	campaignUEs := float64(len(fleet.AllMixes) * h.size.fleetUEs)
	out.named = []figure{
		{name: "fleet_ues_per_s", value: campaignUEs / (median(out.opMs) / 1e3), unit: "UE/s", n: len(out.opMs)},
		{name: "campaign_s", value: median(out.opMs) / 1e3, unit: "s", n: len(out.opMs)},
		{name: "campaign_s_p90", value: quantile(sortedCopy(out.opMs), 0.9) / 1e3, unit: "s", n: len(out.opMs)},
		{name: "fail_ratio", value: out.failRatio(), unit: "fraction", n: out.attempted},
	}
	if h.rec == nil {
		return out, nil
	}
	l := newLayers()
	for i, mix := range fleet.AllMixes {
		l.median("fleet.run_s."+mix.String(), runS[i])
	}
	l.median("fleet.events", events)
	l.median("fleet.events_per_s", evRate)
	l.median("experiments.fleet_table_s", table)
	l.median("fleet.spill_close_s", spill)
	l.median("obs.metrics_csv_s", csv)
	l.runtimeMedians(deltas)
	l.median("trace.generations", gens)
	l.set("runtime.heap_live_mb", heapMax, len(deltas))
	l.set("harness.trace_overhead", overhead(traced, untraced), len(traced)+len(untraced))
	l.median("harness.unaccounted_share", unacc)
	out.layers = l
	return out, nil
}
