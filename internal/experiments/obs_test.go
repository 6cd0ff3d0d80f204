package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"fivegsim/internal/obs"
)

// obsIDs covers one instrumented subsystem each: rrc (table2), transport
// (fig8), and abr (fig18b).
var obsIDs = []string{"fig18b", "fig8", "table2"}

func renderAll(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(render(r.Tables))
	}
	return b.String()
}

// TestRunManyObsByteIdentical is the battery half of the observability
// determinism contract: enabling collection changes no table bytes, and the
// trace/metrics artifacts are byte-identical between a serial run and a
// 4-worker run.
func TestRunManyObsByteIdentical(t *testing.T) {
	base := Config{Seed: 5, Quick: true}
	ref, err := RunManyCtx(context.Background(), base, obsIDs, 1)
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) (tables, traceJSON, metricsCSV string) {
		cfg := base
		cfg.Obs = obs.New()
		results, err := RunManyCtx(context.Background(), cfg, obsIDs, workers)
		if err != nil {
			t.Fatal(err)
		}
		var tj, mc bytes.Buffer
		if err := WriteTrace(&tj, results); err != nil {
			t.Fatal(err)
		}
		if err := WriteMetrics(&mc, results); err != nil {
			t.Fatal(err)
		}
		return renderAll(results), tj.String(), mc.String()
	}

	tab1, tj1, mc1 := run(1)
	tab4, tj4, mc4 := run(4)

	if tab1 != renderAll(ref) {
		t.Error("enabling obs changed the rendered tables")
	}
	if tab1 != tab4 {
		t.Error("tables differ between 1 and 4 workers with obs enabled")
	}
	if tj1 != tj4 {
		t.Errorf("trace artifact differs between 1 and 4 workers (%d vs %d bytes)", len(tj1), len(tj4))
	}
	if mc1 != mc4 {
		t.Errorf("metrics artifact differs between 1 and 4 workers:\n--- w1 ---\n%s--- w4 ---\n%s", mc1, mc4)
	}

	// The artifacts must actually contain each subsystem's records: rrc
	// transitions, transport loss events, and abr chunk decisions, plus the
	// per-experiment event counter.
	for _, want := range []string{`"sub":"rrc"`, `"sub":"transport"`, `"sub":"abr"`} {
		if !strings.Contains(tj1, want) {
			t.Errorf("trace artifact missing %s records", want)
		}
	}
	if !strings.HasPrefix(mc1, obs.MetricsCSVHeader) {
		t.Error("metrics artifact missing header")
	}
	for _, want := range []string{"rrc.transitions", "transport.cwnd_pkts", "abr.chunks", "experiment.events"} {
		if !strings.Contains(mc1, want) {
			t.Errorf("metrics artifact missing %s rows", want)
		}
	}
}

// TestRunManyNoObsLeavesResultsBare pins the disabled default: without a
// collector in the Config, results carry none and the artifact writers
// emit nothing (header aside).
func TestRunManyNoObsLeavesResultsBare(t *testing.T) {
	results, err := RunManyCtx(context.Background(), Config{Seed: 5, Quick: true}, []string{"table2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Obs != nil {
		t.Error("Result.Obs non-nil without cfg.Obs")
	}
	var tj, mc bytes.Buffer
	if err := WriteTrace(&tj, results); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetrics(&mc, results); err != nil {
		t.Fatal(err)
	}
	if tj.Len() != 0 {
		t.Errorf("trace artifact not empty: %q", tj.String())
	}
	if mc.String() != obs.MetricsCSVHeader {
		t.Errorf("metrics artifact not header-only: %q", mc.String())
	}
}
