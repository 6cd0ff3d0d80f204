package abr

import (
	"bytes"
	"testing"

	"fivegsim/internal/obs"
	"fivegsim/internal/trace"
)

// artifacts renders a collector into the exact bytes the CLI would emit.
func artifacts(t *testing.T, o *obs.Obs) (traceJSON, metricsCSV string) {
	t.Helper()
	var tj, mc bytes.Buffer
	if err := obs.WriteTraceJSON(&tj, "fig17", o.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetricsCSV(&mc, "fig17", o.Meter()); err != nil {
		t.Fatal(err)
	}
	return tj.String(), mc.String()
}

// TestEvaluateObsByteIdentical is the observability half of the determinism
// contract: enabling collection must not change the Aggregate, and the
// collector must receive the trace and metrics artifacts.
func TestEvaluateObsByteIdentical(t *testing.T) {
	v, err := NewVideo(200, 4, 160, 6)
	if err != nil {
		t.Fatal(err)
	}
	traces := trace.GenSet5G(9, 260, 33)
	algo := &MPC{Robust: true}

	base := Evaluate(v, algo, traces, Options{})
	o := obs.New()
	agg := Evaluate(v, algo, traces, Options{Obs: o})
	if agg != base {
		t.Errorf("enabling obs changed the Aggregate:\n  off: %+v\n  on:  %+v", base, agg)
	}
	if tj, mc := artifacts(t, o); tj == "" || mc == "" {
		t.Error("enabled collection produced empty artifacts")
	}
}

// TestSimulateObsDisabledAllocFree pins the headline cost contract for the
// playback loop: with Obs nil the scratch-reusing steady path stays
// allocation-free even though the obs hooks are compiled in.
func TestSimulateObsDisabledAllocFree(t *testing.T) {
	v, err := NewVideo(300, 4, 160, 6)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Gen5GmmWave(11, 400)
	algo := &MPC{}
	sc := &Scratch{}
	SimulateScratch(v, algo, tr, Options{}, sc) // warm the scratch
	allocs := testing.AllocsPerRun(20, func() {
		SimulateScratch(v, algo, tr, Options{}, sc)
	})
	if allocs != 0 {
		t.Fatalf("steady SimulateScratch with nil Obs allocates %v/op, want 0", allocs)
	}
}
