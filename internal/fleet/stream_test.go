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
// shard count and renders everything stream mode can emit — each metric's
// column (sketch sample and mean, hex-exact), the trace JSON, and the
// metrics CSV — as one byte string.
func streamCampaignBytes(t *testing.T, shards int) string {
	t.Helper()
	root := obs.New()
	var b bytes.Buffer
	var sorter stats.RadixSorter
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
		for i := 0; i < fleet.NumMetrics; i++ {
			sorted, mean := res.Column(i, nil, &sorter)
			fmt.Fprintf(&b, "%s mean=%x sample=%x\n", fleet.MetricLabel(i), mean, sorted)
		}
		fmt.Fprintf(&b, "nr_share=%x\n", res.NRShare())
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
// the sketch capacity, the bottom-k sample IS the population, so each
// stream column equals the exact-mode column bit for bit, and its
// fixed-point mean agrees with the exact mean to fixed-point precision.
func TestStreamQuantilesExactForSmallPopulations(t *testing.T) {
	cfg := fleet.Config{Seed: 7, UEs: 403, Shards: 4, WindowS: 60}
	exact := mustRun(t, cfg)
	cfg.Stream = true
	streamed := mustRun(t, cfg)
	var sorter stats.RadixSorter
	for i := 0; i < fleet.NumMetrics; i++ {
		want, wantMean := exact.Column(i, nil, &sorter)
		got, gotMean := streamed.Column(i, nil, &sorter)
		if fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want) {
			t.Errorf("%s: stream column differs from the exact column", fleet.MetricLabel(i))
		}
		if math.Abs(gotMean-wantMean) > 1e-9*math.Max(1, math.Abs(wantMean)) {
			t.Errorf("%s: stream mean %g vs exact %g beyond fixed-point tolerance",
				fleet.MetricLabel(i), gotMean, wantMean)
		}
	}
	if got, want := streamed.NRShare(), exact.NRShare(); got != want {
		t.Errorf("NRShare: stream %g vs exact %g", got, want)
	}
}

// TestStreamStateBounded: stream mode keeps no per-UE state — Result.UEs
// is nil and sketches cap at K however large the population — while the
// histograms count, and the means average, every session.
func TestStreamStateBounded(t *testing.T) {
	cfg := fleet.Config{Seed: 3, UEs: 900, Shards: 4, WindowS: 60, SketchK: 64}
	exact := mustRun(t, cfg)
	cfg.Stream, cfg.Obs = true, obs.New()
	res := mustRun(t, cfg)
	if res.UEs != nil {
		t.Fatalf("stream mode kept a %d-entry results slice", len(res.UEs))
	}
	var sorter stats.RadixSorter
	for _, name := range []string{"fleet.tput_mbps", "fleet.qoe", "fleet.energy_j", "fleet.stall_s"} {
		if h := cfg.Obs.Meter().Hist(name, nil); h.N != 900 {
			t.Fatalf("%s: N = %d, want 900", name, h.N)
		}
	}
	for i := 0; i < fleet.NumMetrics; i++ {
		label := fleet.MetricLabel(i)
		sorted, mean := res.Column(i, nil, &sorter)
		if len(sorted) != 64 {
			t.Errorf("%s: sketch kept %d values, want 64", label, len(sorted))
		}
		// With k=64 << 900 the quantiles are estimates; sanity-bound them
		// rather than requiring exactness. The mean is over every session.
		p5, p50, p95 := stats.PercentileSorted(sorted, 5), stats.PercentileSorted(sorted, 50),
			stats.PercentileSorted(sorted, 95)
		if p5 > p50 || p50 > p95 {
			t.Errorf("%s: quantile estimates not monotone: p5=%g p50=%g p95=%g", label, p5, p50, p95)
		}
		if _, want := exact.Column(i, nil, &sorter); math.Abs(mean-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s: stream mean %g vs exact %g beyond fixed-point tolerance", label, mean, want)
		}
	}
}
