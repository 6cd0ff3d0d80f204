package fleet_test

import (
	"bytes"
	"testing"

	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
	"fivegsim/internal/obs/colf"
)

// The spill acceptance gates: the Spill must produce byte-identical
// artifacts to the central reduce rendered in memory, in both formats, at
// any shard count, across sequential multi-mix campaigns whose colf block
// boundary falls inside a campaign.

// spillUEs is the population of each of the three campaigns. Every UE is
// sampled, so the 4500 records cross the default 4096-record colf block
// boundary inside the third campaign.
const spillUEs = 1500

// centralTrace renders the reference artifact through the serial central
// pipeline: campaign reduce emits into a sub-collector, MergeTagged stamps
// the mix tag, and the root trace is rendered once, in memory, the way the
// battery renders its artifacts.
func centralTrace(t *testing.T, format string, shards int) []byte {
	t.Helper()
	root := obs.New()
	for _, mix := range fleet.AllMixes {
		sub := obs.Sub(root)
		mustRun(t, fleet.Config{
			Seed: 7, UEs: spillUEs, Shards: shards, Mix: mix, WindowS: 60,
			TraceEvery: 1, Obs: sub,
		})
		root.MergeTagged(sub, obs.S("mix", mix.String()))
	}
	return renderTrace(t, root.Trace(), format, colf.DefaultBlockRecords)
}

// renderTrace renders a tracer's records as the fleet trace artifact:
// WriteTraceJSON for jsonl, Walk into a colf Writer with the given block
// size for colf.
func renderTrace(t *testing.T, tr *obs.Tracer, format string, blockRecs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if format == "jsonl" {
		if err := obs.WriteTraceJSON(&buf, "fleet", tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cw := colf.NewWriterSize(&buf, blockRecs)
	if err := tr.Walk(func(r *obs.Record) error { return cw.Add("fleet", r) }); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// spilledTrace renders the same artifact through one Spill across all
// three mixes.
func spilledTrace(t *testing.T, format string, shards int) []byte {
	t.Helper()
	var buf bytes.Buffer
	var sp *fleet.Spill
	if format == "colf" {
		sp = fleet.NewColfSpill(&buf, "fleet")
	} else {
		sp = fleet.NewJSONLSpill(&buf, "fleet")
	}
	for _, mix := range fleet.AllMixes {
		mustRun(t, fleet.Config{
			Seed: 7, UEs: spillUEs, Shards: shards, Mix: mix, WindowS: 60,
			TraceEvery: 1, Spill: sp, SpillTags: []obs.Field{obs.S("mix", mix.String())},
		})
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpillMatchesCentral is the core gate: spilled bytes equal
// central-pipeline bytes for every (format, shard count) combination.
func TestSpillMatchesCentral(t *testing.T) {
	for _, format := range []string{"colf", "jsonl"} {
		want := centralTrace(t, format, 3)
		if len(want) == 0 {
			t.Fatalf("%s: central reference artifact is empty", format)
		}
		for _, shards := range []int{1, 2, 4, 7} {
			if got := spilledTrace(t, format, shards); !bytes.Equal(got, want) {
				t.Errorf("%s: spilled artifact at %d shards differs from central (%d vs %d bytes)",
					format, shards, len(got), len(want))
			}
		}
	}
}

// TestSpillWithObsKeepsMetricsAndSkipsTracer: running with both Obs and
// Spill must not double-emit — the tracer stays empty (records go through
// the spill) while metrics histograms still fold normally.
func TestSpillWithObsKeepsMetricsAndSkipsTracer(t *testing.T) {
	var buf bytes.Buffer
	sp := fleet.NewJSONLSpill(&buf, "fleet")
	o := obs.New()
	mustRun(t, fleet.Config{
		Seed: 7, UEs: 101, Shards: 2, Mix: fleet.MixMixed, WindowS: 60,
		Obs: o, Spill: sp,
	})
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if n := o.Trace().Len(); n != 0 {
		t.Errorf("tracer holds %d records; spill mode must bypass it", n)
	}
	if buf.Len() == 0 {
		t.Error("spill artifact is empty")
	}
	h := o.Meter().Hist("fleet.tput_mbps", nil)
	if h.N != 101 {
		t.Errorf("tput histogram folded %d sessions, want 101", h.N)
	}
}
