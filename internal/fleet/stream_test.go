package fleet_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
	"fivegsim/internal/stats"
)

// streamCampaignBytes runs one stream-mode campaign per mix at the given
// shard count and renders everything stream mode can emit — the metric
// summaries, the trace JSON, and the metrics CSV — as one byte string.
func streamCampaignBytes(t *testing.T, shards int) string {
	t.Helper()
	root := obs.New()
	var b bytes.Buffer
	for _, mix := range fleet.AllMixes {
		sub := obs.Sub(root)
		res := mustRun(t, fleet.Config{
			Seed:    7,
			UEs:     403,
			Shards:  shards,
			Mix:     mix,
			WindowS: 60,
			Obs:     sub,
			Stream:  true,
		})
		root.MergeTagged(sub, obs.S("mix", mix.String()))
		for _, s := range res.Stream.Summaries() {
			fmt.Fprintf(&b, "%s n=%d mean=%x p=[%x %x %x %x %x]\n",
				s.Name, s.N, s.Mean, s.P5, s.P25, s.P50, s.P75, s.P95)
		}
		fmt.Fprintf(&b, "nr_share=%x ues=%d\n", res.Stream.NRShare(), res.Stream.UEs())
	}
	if err := obs.WriteTraceJSON(&b, "fleet", root.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetricsCSV(&b, "fleet", root.Meter()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStreamShardCountByteIdentity extends the fleet determinism contract
// to stream mode: summaries (hex-exact floats), trace, and metrics are
// byte-identical for shards in {1, 2, 4, 7} over an uneven 403-UE
// population, even though each shard folded its sessions locally.
func TestStreamShardCountByteIdentity(t *testing.T) {
	want := streamCampaignBytes(t, 1)
	for _, shards := range []int{2, 4, 7} {
		got := streamCampaignBytes(t, shards)
		if got != want {
			t.Errorf("shards=%d stream output diverges from serial run:\n%s",
				shards, firstDiff(want, got))
		}
	}
}

// TestStreamTraceMatchesExact: the sampled-session trace artifact must be
// byte-identical between stream and exact mode — same sampled UE set,
// same UEResult values, same UE-id emission order.
func TestStreamTraceMatchesExact(t *testing.T) {
	trace := func(stream bool, shards int) string {
		o := obs.New()
		mustRun(t, fleet.Config{
			Seed: 7, UEs: 403, Shards: shards, WindowS: 60,
			Obs: o, Stream: stream,
		})
		var b bytes.Buffer
		if err := obs.WriteTraceJSON(&b, "fleet", o.Trace()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := trace(false, 1)
	for _, shards := range []int{1, 4} {
		if got := trace(true, shards); got != want {
			t.Errorf("stream trace (shards=%d) differs from exact trace:\n%s",
				shards, firstDiff(want, got))
		}
	}
}

// TestStreamHistogramCountsMatchExact: stream-mode histogram buckets and
// counts equal exact mode's; the float sums agree to fixed-point
// precision (0.5 nanounit per session).
func TestStreamHistogramCountsMatchExact(t *testing.T) {
	run := func(stream bool) []obs.Point {
		o := obs.New()
		mustRun(t, fleet.Config{
			Seed: 7, UEs: 403, Shards: 4, WindowS: 60,
			Obs: o, Stream: stream,
		})
		return o.Meter().Snapshot()
	}
	exact, streamed := run(false), run(true)
	if len(exact) != len(streamed) {
		t.Fatalf("snapshot length mismatch: exact %d vs stream %d", len(exact), len(streamed))
	}
	for i := range exact {
		e, s := exact[i], streamed[i]
		if e.Kind != s.Kind || e.Name != s.Name || e.Field != s.Field {
			t.Fatalf("point %d identity mismatch: %+v vs %+v", i, e, s)
		}
		if e.Field == "sum" || e.Name == "fleet.stall_s_total" {
			if math.Abs(e.Value-s.Value) > 1e-6*math.Max(1, math.Abs(e.Value)) {
				t.Errorf("%s %s: stream %g vs exact %g beyond fixed-point tolerance",
					e.Name, e.Field, s.Value, e.Value)
			}
			continue
		}
		if e.Value != s.Value {
			t.Errorf("%s %s: stream %g vs exact %g (want exact equality)",
				e.Name, e.Field, s.Value, e.Value)
		}
	}
}

// TestStreamQuantilesExactForSmallPopulations: with the population inside
// the sketch capacity, the bottom-k sample IS the population, so stream
// quantiles equal exact-mode percentiles bit for bit.
func TestStreamQuantilesExactForSmallPopulations(t *testing.T) {
	cfg := fleet.Config{Seed: 7, UEs: 403, Shards: 4, WindowS: 60}
	exact := mustRun(t, cfg)
	cfg.Stream = true
	streamed := mustRun(t, cfg)
	pops := map[string][]float64{}
	for _, u := range exact.UEs {
		pops["tput_mbps"] = append(pops["tput_mbps"], u.MeanMbps)
		pops["qoe"] = append(pops["qoe"], u.QoE)
		pops["energy_j"] = append(pops["energy_j"], u.EnergyJ)
		pops["stall_s"] = append(pops["stall_s"], u.StallS)
	}
	for _, s := range streamed.Stream.Summaries() {
		sorted := stats.SortN(pops[s.Name])
		for _, q := range []struct {
			p   float64
			got float64
		}{{5, s.P5}, {25, s.P25}, {50, s.P50}, {75, s.P75}, {95, s.P95}} {
			if want := stats.PercentileSorted(sorted, q.p); q.got != want {
				t.Errorf("%s p%g: stream %g vs exact %g", s.Name, q.p, q.got, want)
			}
		}
	}
	if got, want := streamed.Stream.NRShare(), exact.NRShare(); got != want {
		t.Errorf("NRShare: stream %g vs exact %g", got, want)
	}
}

// TestStreamStateBounded: stream mode keeps no per-UE state — Result.UEs
// is nil and sketches cap at K however large the population.
func TestStreamStateBounded(t *testing.T) {
	res := mustRun(t, fleet.Config{
		Seed: 3, UEs: 900, Shards: 4, WindowS: 60,
		Stream: true, SketchK: 64,
	})
	if res.UEs != nil {
		t.Fatalf("stream mode kept a %d-entry results slice", len(res.UEs))
	}
	if res.Stream.UEs() != 900 {
		t.Fatalf("stream stats folded %d sessions, want 900", res.Stream.UEs())
	}
	for _, s := range res.Stream.Summaries() {
		if s.N != 900 {
			t.Fatalf("%s: N = %d, want 900", s.Name, s.N)
		}
	}
	// With k=64 << 900 the quantiles are estimates; sanity-bound them
	// against the histogram-backed mean rather than requiring exactness.
	for _, s := range res.Stream.Summaries() {
		if s.P5 > s.P50 || s.P50 > s.P95 {
			t.Errorf("%s: quantile estimates not monotone: p5=%g p50=%g p95=%g",
				s.Name, s.P5, s.P50, s.P95)
		}
	}
}
