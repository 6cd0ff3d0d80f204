package rrc

import (
	"math"
	"testing"

	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
	"fivegsim/internal/sim"
)

// nsaLongDRXConfig is an NSA deployment whose idle paging cycle is long
// enough that the paging wait plus the 4G promotion exceeds the 5G
// promotion clock — the geometry that used to invert nrAt and connectedAt.
var nsaLongDRXConfig = Config{
	Network: radio.TMobileNSALowBand,
	TailMs:  10400, LTETailMs: 12120, LongDRXMs: 320, IdleDRXMs: 1300,
	Promo4GMs: 210, Promo5GMs: 1440,
	TailPowerMw: 260, SwitchPowerMw: 699, IdlePowerMw: 18,
}

// TestNSAPromotionNRNeverBeforeAnchor reproduces the EN-DC ordering bug: at
// a DRX phase where the paging wait is near its full 1.3 s cycle, the NR
// promotion clock (now + Promo5GMs) lands before the LTE anchor connects,
// and ActiveRadio used to report Radio5G while the machine was still
// Promoting. EN-DC forbids that — the anchor's RRC signalling is what adds
// the NR secondary cell group.
func TestNSAPromotionNRNeverBeforeAnchor(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, nsaLongDRXConfig)
	// t = 0.05: 1.25 s of paging wait remain, so the anchor connects at
	// 0.05 + 1.25 + 0.21 = 1.51 s while the raw NR clock says 0.05 + 1.44
	// = 1.49 s.
	eng.RunUntil(0.05)
	delay := m.DataActivity()
	connectedAt := eng.Now() + delay
	if want := 1.51; math.Abs(connectedAt-want) > 1e-9 {
		t.Fatalf("connectedAt = %v, want %v (test geometry drifted)", connectedAt, want)
	}
	// Probe inside the would-be inversion window (1.49, 1.51).
	eng.RunUntil(1.50)
	if got := m.CurrentState(); got != Promoting {
		t.Fatalf("state at 1.50 = %v, want Promoting", got)
	}
	if got := m.ActiveRadio(); got == Radio5G {
		t.Fatalf("ActiveRadio = 5G while still Promoting (before the LTE anchor connected)")
	}
	// Once the anchor is up, the (clamped) NR leg is available.
	eng.RunUntil(connectedAt + 1e-6)
	if got := m.CurrentState(); got != Connected {
		t.Fatalf("state after promotion = %v, want Connected", got)
	}
	if got := m.ActiveRadio(); got != Radio5G {
		t.Fatalf("ActiveRadio after promotion = %v, want 5G", got)
	}
}

// promoteDemoteCycle drives one full idle -> promote -> connected -> tail
// -> idle round trip and returns the machine to Idle.
func promoteDemoteCycle(eng *sim.Engine, m *Machine) {
	d := m.DataActivity()
	// Past the promotion, the 12.12 s LTE tail, and some slack.
	eng.RunUntil(eng.Now() + d + 14)
}

// TestPromotionTimerReuseSoak soaks the machine through many
// promotion/demotion cycles and asserts (a) the inactivity timer is reused,
// never reallocated, (b) the engine's per-cycle event count is flat (slot
// stability: the calendar reaches a steady state instead of accreting), and
// (c) the steady-state cycle performs no timer-churn allocations.
func TestPromotionTimerReuseSoak(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, MustConfig(radio.TMobileNSALowBand))
	timer := m.tailTimer
	first := sim.CountEvents(func() { promoteDemoteCycle(eng, m) })
	var counts []uint64
	for i := 0; i < 50; i++ {
		counts = append(counts, sim.CountEvents(func() { promoteDemoteCycle(eng, m) }))
	}
	if m.tailTimer != timer {
		t.Error("tailTimer was reallocated during the soak; it must be reused")
	}
	for i, c := range counts {
		if c != counts[0] {
			t.Fatalf("cycle %d processed %d events, cycle 1 processed %d: calendar not slot-stable", i+1, c, counts[0])
		}
	}
	if first != counts[0] {
		t.Logf("warmup cycle processed %d events vs steady %d", first, counts[0])
	}
	// The steady cycle allocates only the two scheduling closures
	// (promotion completion, demotion cascade); the old code added a fresh
	// sim.Timer plus its fire closure on every promotion.
	avg := testing.AllocsPerRun(20, func() { promoteDemoteCycle(eng, m) })
	if avg > 3 {
		t.Errorf("steady-state cycle allocates %v objects, want <= 3 (timer churn?)", avg)
	}
}

// TestRefreshSingleEmissionPoint asserts the lazily backdated
// Connected -> TailNR edge is emitted exactly once and through the same
// path as every other transition: one Log entry, one OnTransition call,
// one obs record, all stamped at lastData + tailThresholdS.
func TestRefreshSingleEmissionPoint(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, MustConfig(radio.VerizonLTE))
	m.LogTransitions = true
	m.Obs = obs.New()
	var calls []Transition
	m.OnTransition = func(tr Transition) { calls = append(calls, tr) }

	d := m.DataActivity()
	eng.RunUntil(d + 0.05) // Connected, continuous reception
	lastData := d
	eng.RunUntil(d + 2)
	// Several queries must produce exactly one Connected -> TailNR edge.
	m.CurrentState()
	m.ActiveRadio()
	m.RadioPowerMw()

	var edges []Transition
	for _, tr := range m.Log {
		if tr.From == Connected && tr.To == TailNR {
			edges = append(edges, tr)
		}
	}
	if len(edges) != 1 {
		t.Fatalf("Connected->TailNR logged %d times, want exactly once (log: %v)", len(edges), m.Log)
	}
	wantAt := lastData + tailThresholdS
	if math.Abs(edges[0].At-wantAt) > 1e-9 {
		t.Errorf("edge backdated to %v, want %v", edges[0].At, wantAt)
	}
	if len(calls) != len(m.Log) {
		t.Errorf("OnTransition fired %d times but Log has %d entries; emission points diverged", len(calls), len(m.Log))
	}
	if got := m.Obs.Trace().Len(); got != len(m.Log) {
		t.Errorf("obs recorded %d transitions but Log has %d; emission points diverged", got, len(m.Log))
	}
}

// TestObsTransitionRecords sanity-checks the rrc obs wiring: records are
// spans stamped from the engine clock with from/to fields, the transition
// counter matches, and dwell histograms account for every transition.
func TestObsTransitionRecords(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, MustConfig(radio.TMobileSALowBand))
	m.Obs = obs.New()
	d := m.DataActivity()
	eng.RunUntil(d + 30) // through the tail, RRC_INACTIVE, back to idle
	var recs []obs.Record
	m.Obs.Trace().Walk(func(r *obs.Record) error {
		recs = append(recs, *r)
		return nil
	})
	if len(recs) < 4 {
		t.Fatalf("expected a full demotion cascade in the trace, got %d records", len(recs))
	}
	last := -1.0
	for _, r := range recs {
		if r.Sub != "rrc" || r.Name != "transition" {
			t.Fatalf("unexpected record %+v", r)
		}
		end := r.At + r.Dur
		if end < last {
			t.Fatalf("transition spans out of order: %v after %v", end, last)
		}
		last = end
	}
	var n float64
	for _, p := range m.Obs.Meter().Snapshot() {
		if p.Kind == "counter" && p.Name == "rrc.transitions" {
			n = p.Value
		}
	}
	if int(n) != len(recs) {
		t.Errorf("rrc.transitions counter = %v, want %d", n, len(recs))
	}
}
