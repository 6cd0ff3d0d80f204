package rrc

import (
	"math"
	"testing"

	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
)

func newM(t *testing.T, n radio.Network) *Machine {
	t.Helper()
	cfg, err := ConfigFor(n)
	if err != nil {
		t.Fatal(err)
	}
	return NewMachine(cfg)
}

// transition is one state change, read back from the machine's trace.
type transition struct {
	At       float64
	From, To State
}

// transitions returns the state changes m has emitted to its Obs. Each
// "rrc"/"transition" span covers the dwell in the state it leaves and the
// next span begins where it ends, so change i happens at span i+1's At;
// the last change happens at its span's end.
func transitions(t testing.TB, m *Machine) []transition {
	t.Helper()
	var out []transition
	m.Obs.Trace().Walk(func(r *obs.Record) error {
		if r.Sub != "rrc" || r.Name != "transition" {
			t.Fatalf("unexpected record %+v", r)
		}
		tr := transition{At: r.At + r.Dur}
		for _, f := range r.Fields() {
			switch f.Key {
			case "from":
				tr.From = stateNamed(t, f.Str)
			case "to":
				tr.To = stateNamed(t, f.Str)
			}
		}
		if n := len(out); n > 0 {
			out[n-1].At = r.At
		}
		out = append(out, tr)
		return nil
	})
	return out
}

// stateNamed returns the State whose String is name.
func stateNamed(t testing.TB, name string) State {
	t.Helper()
	for s := Idle; s <= Inactive; s++ {
		if s.String() == name {
			return s
		}
	}
	t.Fatalf("unknown state %q", name)
	return Idle
}

func TestConfigForAllNetworks(t *testing.T) {
	for _, n := range radio.AllNetworks {
		cfg, err := ConfigFor(n)
		if err != nil {
			t.Fatalf("ConfigFor(%s): %v", n, err)
		}
		if cfg.TailMs <= 0 || cfg.IdleDRXMs <= 0 {
			t.Errorf("%s: missing timers: %+v", n, cfg)
		}
		if cfg.TailPowerMw <= 0 {
			t.Errorf("%s: missing tail power", n)
		}
	}
	if _, err := ConfigFor(radio.Network{Carrier: "X", Band: radio.BandN41}); err == nil {
		t.Error("ConfigFor unknown network did not error")
	}
}

func TestMustConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustConfig did not panic for unknown network")
		}
	}()
	MustConfig(radio.Network{Carrier: "X", Band: radio.BandN41})
}

func TestTable7Timers(t *testing.T) {
	// Spot-check the canonical values from Table 7.
	cases := []struct {
		n                    radio.Network
		tail, drx, idle, p4g float64
	}{
		{radio.TMobileSALowBand, 10400, 40, 1250, 0},
		{radio.TMobileNSALowBand, 10400, 320, 1200, 210},
		{radio.VerizonNSAmmWave, 10500, 320, 1280, 396},
		{radio.VerizonNSALowBand, 10200, 400, 1100, 288},
		{radio.TMobileLTE, 5000, 400, 1300, 190},
		{radio.VerizonLTE, 10200, 300, 1280, 265},
	}
	for _, c := range cases {
		cfg := MustConfig(c.n)
		if cfg.TailMs != c.tail || cfg.LongDRXMs != c.drx ||
			cfg.IdleDRXMs != c.idle || cfg.Promo4GMs != c.p4g {
			t.Errorf("%s: got %+v", c.n, cfg)
		}
	}
	// Key §4.2 finding: the SA/NSA 5G tails are ~10 s, like 4G, not 2x.
	sa := MustConfig(radio.TMobileSALowBand)
	vz4g := MustConfig(radio.VerizonLTE)
	if sa.TailMs > 1.1*vz4g.TailMs {
		t.Errorf("5G tail (%v) should be ~= 4G tail (%v), not 2x", sa.TailMs, vz4g.TailMs)
	}
}

func TestIdlePromotionDelay(t *testing.T) {
	m := newM(t, radio.VerizonLTE)
	if m.CurrentState() != Idle {
		t.Fatalf("initial state = %v", m.CurrentState())
	}
	// At t=0 the paging cycle is phase-aligned, so delay = promo only.
	d := m.DataActivity()
	if math.Abs(d-0.265) > 1e-9 {
		t.Errorf("promotion delay = %v, want 0.265", d)
	}
	if m.CurrentState() != Promoting {
		t.Errorf("state after DataActivity = %v, want Promoting", m.CurrentState())
	}
	m.RunUntil(d + 0.001)
	if m.CurrentState() != Connected {
		t.Errorf("state after promotion = %v, want Connected", m.CurrentState())
	}
}

func TestIdlePagingAlignment(t *testing.T) {
	m := newM(t, radio.VerizonLTE) // idle DRX 1280 ms
	// Move to a time mid-paging-cycle: at t=0.5 s, next wake is at 1.28 s.
	m.RunUntil(0.5)
	d := m.DataActivity()
	want := (1.28 - 0.5) + 0.265
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("delay at t=0.5 = %v, want %v", d, want)
	}
}

func TestConnectedZeroDelay(t *testing.T) {
	m := newM(t, radio.VerizonLTE)
	d := m.DataActivity()
	m.RunUntil(d + 0.01)
	// Packet immediately after: continuous reception, no delay.
	if got := m.DataActivity(); got != 0 {
		t.Errorf("connected delay = %v, want 0", got)
	}
}

func TestTailDemotionLTE(t *testing.T) {
	m := newM(t, radio.TMobileLTE) // tail 5 s
	d := m.DataActivity()
	m.RunUntil(d + 0.2)
	if m.CurrentState() != TailNR {
		t.Fatalf("state 200ms after data = %v, want TailNR", m.CurrentState())
	}
	m.RunUntil(d + 5.1)
	if m.CurrentState() != Idle {
		t.Errorf("state after tail = %v, want Idle", m.CurrentState())
	}
}

func TestNSATwoPhaseTail(t *testing.T) {
	m := newM(t, radio.VerizonNSALowBand) // tail 10.2 s, LTE tail to 18.8 s
	d := m.DataActivity()
	m.RunUntil(d + 1)
	if m.CurrentState() != TailNR {
		t.Fatalf("state = %v, want TailNR", m.CurrentState())
	}
	m.RunUntil(d + 11)
	if m.CurrentState() != TailLTE {
		t.Fatalf("state at 11 s = %v, want TailLTE", m.CurrentState())
	}
	if m.ActiveRadio() != Radio4G {
		t.Errorf("radio in TailLTE = %v, want 4G", m.ActiveRadio())
	}
	m.RunUntil(d + 19)
	if m.CurrentState() != Idle {
		t.Errorf("state at 19 s = %v, want Idle", m.CurrentState())
	}
}

func TestSAInactiveState(t *testing.T) {
	m := newM(t, radio.TMobileSALowBand) // tail 10.4 s + 5 s inactive
	d := m.DataActivity()
	m.RunUntil(d + 11)
	if m.CurrentState() != Inactive {
		t.Fatalf("state at 11 s = %v, want Inactive", m.CurrentState())
	}
	// Resume from INACTIVE is fast (~110 ms) versus a full promotion (341 ms).
	rd := m.DataActivity()
	if math.Abs(rd-0.110) > 1e-9 {
		t.Errorf("resume delay = %v, want 0.110", rd)
	}
	// Let it decay fully to Idle this time.
	m.RunUntil(m.Now() + rd + 10.4 + 5.1)
	if m.CurrentState() != Idle {
		t.Fatalf("state after full decay = %v, want Idle", m.CurrentState())
	}
	// From Idle, promotion is the full 341 ms (phase-aligned at cycle edge
	// or not; just check it's >= promo).
	id := m.DataActivity()
	if id < 0.341-1e-9 {
		t.Errorf("idle promotion = %v, want >= 0.341", id)
	}
}

func TestNSA5GAttachTiming(t *testing.T) {
	m := newM(t, radio.TMobileNSALowBand) // 4G promo 210 ms, 5G promo 1440 ms
	d := m.DataActivity()
	if math.Abs(d-0.210) > 1e-9 {
		t.Fatalf("NSA first-packet delay = %v, want 0.210 (4G promo)", d)
	}
	m.RunUntil(0.3)
	if m.ActiveRadio() != Radio4G {
		t.Errorf("radio at 300 ms = %v, want 4G (NR not attached yet)", m.ActiveRadio())
	}
	m.DataActivity() // keep the connection alive
	m.RunUntil(1.5)
	if m.ActiveRadio() != Radio5G {
		t.Errorf("radio at 1.5 s = %v, want 5G", m.ActiveRadio())
	}
}

func TestDSSImmediateNR(t *testing.T) {
	m := newM(t, radio.VerizonNSALowBand) // Promo5GMs == 0 (DSS)
	d := m.DataActivity()
	m.RunUntil(d + 0.01)
	if m.ActiveRadio() != Radio5G {
		t.Errorf("DSS radio right after promotion = %v, want 5G", m.ActiveRadio())
	}
}

func TestLTENeverNR(t *testing.T) {
	m := newM(t, radio.VerizonLTE)
	d := m.DataActivity()
	m.RunUntil(d + 1)
	m.DataActivity()
	m.RunUntil(d + 100)
	if m.ActiveRadio() == Radio5G {
		t.Error("LTE network reported a 5G radio")
	}
}

func TestTailDRXWait(t *testing.T) {
	m := newM(t, radio.VerizonNSAmmWave) // long DRX 320 ms
	d := m.DataActivity()
	m.RunUntil(d + 0.01)
	m.DataActivity()
	base := m.Now()
	// 3 s into the tail: DRX phase started at lastData+0.1.
	m.RunUntil(base + 3.0)
	got := m.DataActivity()
	// Wait must be within one long-DRX cycle.
	if got < 0 || got > 0.320+1e-9 {
		t.Errorf("tail DRX wait = %v, want within [0, 0.320]", got)
	}
}

func TestIdlePowerOrdering(t *testing.T) {
	// Table 2: mmWave tail power dwarfs the others; 5G tails above 4G tails
	// for the same carrier.
	mm := MustConfig(radio.VerizonNSAmmWave)
	vzLB := MustConfig(radio.VerizonNSALowBand)
	vz4G := MustConfig(radio.VerizonLTE)
	tmNSA := MustConfig(radio.TMobileNSALowBand)
	tm4G := MustConfig(radio.TMobileLTE)
	if !(mm.TailPowerMw > vzLB.TailPowerMw && vzLB.TailPowerMw > vz4G.TailPowerMw) {
		t.Error("Verizon tail power ordering violated")
	}
	if tmNSA.TailPowerMw <= tm4G.TailPowerMw {
		t.Error("T-Mobile NSA tail power should exceed 4G")
	}
}

func TestRadioPowerByState(t *testing.T) {
	m := newM(t, radio.TMobileSALowBand)
	if got := m.RadioPowerMw(); got != 18 {
		t.Errorf("idle power = %v, want 18", got)
	}
	d := m.DataActivity()
	if got := m.RadioPowerMw(); got != 245 {
		t.Errorf("promoting power = %v, want switch power 245", got)
	}
	m.RunUntil(d + 0.5)
	if got := m.RadioPowerMw(); got != 593 {
		t.Errorf("tail power = %v, want 593", got)
	}
	m.RunUntil(d + 11)
	if got := m.RadioPowerMw(); got != 45 {
		t.Errorf("inactive power = %v, want 45", got)
	}
}

func TestTransitionLog(t *testing.T) {
	m := newM(t, radio.TMobileLTE)
	m.Obs = obs.New()
	d := m.DataActivity()
	m.RunUntil(d + 6)
	m.CurrentState() // force refresh
	// Expect Idle->Promoting->Connected->TailNR->Idle.
	want := []State{Promoting, Connected, TailNR, Idle}
	log := transitions(t, m)
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i, tr := range log {
		if tr.To != want[i] {
			t.Errorf("transition %d = %v, want to %v", i, tr, want[i])
		}
	}
	// Transitions are time-ordered.
	for i := 1; i < len(log); i++ {
		if log[i].At < log[i-1].At {
			t.Error("transition log not time-ordered")
		}
	}
}

func TestStateStrings(t *testing.T) {
	if Idle.String() != "RRC_IDLE" || Connected.String() != "RRC_CONNECTED" ||
		Inactive.String() != "RRC_INACTIVE" {
		t.Error("state strings wrong")
	}
	if State(42).String() == "" {
		t.Error("unknown state should format")
	}
}

func TestRepeatedCyclesStable(t *testing.T) {
	// Run many promote/demote cycles; the machine must keep functioning and
	// end every cycle back in Idle.
	m := newM(t, radio.TMobileNSALowBand)
	for i := 0; i < 20; i++ {
		d := m.DataActivity()
		m.RunUntil(m.Now() + d + 0.01)
		if m.CurrentState() != Connected {
			t.Fatalf("cycle %d: state %v after promotion", i, m.CurrentState())
		}
		m.RunUntil(m.Now() + 13) // beyond LTE tail 12.12 s
		if m.CurrentState() != Idle {
			t.Fatalf("cycle %d: state %v after decay, want Idle", i, m.CurrentState())
		}
	}
}

// TestRoundTripPerNetwork pins one idle -> promote -> idle round trip per
// network: the number of deadlines fired and the time of every transition.
func TestRoundTripPerNetwork(t *testing.T) {
	type edge struct {
		to State
		at float64
	}
	cases := []struct {
		n      radio.Network
		events uint64
		edges  []edge
	}{
		{radio.TMobileSALowBand, 3, []edge{{Promoting, 0}, {Connected, 0.341}, {TailNR, 0.441}, {Inactive, 10.741}, {Idle, 15.741}}},
		{radio.TMobileNSALowBand, 3, []edge{{Promoting, 0}, {Connected, 0.21}, {TailNR, 0.31}, {TailLTE, 10.61}, {Idle, 12.33}}},
		{radio.VerizonNSALowBand, 3, []edge{{Promoting, 0}, {Connected, 0.288}, {TailNR, 0.388}, {TailLTE, 10.488}, {Idle, 19.088}}},
		{radio.VerizonNSAmmWave, 2, []edge{{Promoting, 0}, {Connected, 0.396}, {TailNR, 0.496}, {Idle, 10.896}}},
		{radio.TMobileLTE, 2, []edge{{Promoting, 0}, {Connected, 0.19}, {TailNR, 0.29}, {Idle, 5.19}}},
		{radio.VerizonLTE, 2, []edge{{Promoting, 0}, {Connected, 0.265}, {TailNR, 0.365}, {Idle, 10.465}}},
	}
	for _, c := range cases {
		m := newM(t, c.n)
		m.Obs = obs.New()
		d := m.DataActivity()
		m.RunUntil(d + 30)
		if m.Events != c.events {
			t.Errorf("%s: %d deadlines fired, want %d", c.n, m.Events, c.events)
		}
		log := transitions(t, m)
		if len(log) != len(c.edges) {
			t.Errorf("%s: log = %v, want %d transitions", c.n, log, len(c.edges))
			continue
		}
		for i, tr := range log {
			if w := c.edges[i]; tr.To != w.to || math.Abs(tr.At-w.at) > 1e-9 {
				t.Errorf("%s: transition %d = %v at %v, want %v at %v", c.n, i, tr.To, tr.At, w.to, w.at)
			}
		}
	}
}

// TestRunUntilFiresDeadlineAtT checks that a deadline exactly at t fires
// inside RunUntil(t).
func TestRunUntilFiresDeadlineAtT(t *testing.T) {
	m := newM(t, radio.TMobileLTE)
	d := m.DataActivity() // the promotion completes at d
	m.RunUntil(d)
	if m.Events != 1 || m.CurrentState() != Connected || m.Now() != d {
		t.Errorf("after RunUntil(%v): %d events, state %v, now %v; want 1, Connected, %v",
			d, m.Events, m.CurrentState(), m.Now(), d)
	}
}

// TestRunUntilNeverRewinds checks that RunUntil(t) with t before Now()
// leaves the clock where it is.
func TestRunUntilNeverRewinds(t *testing.T) {
	m := newM(t, radio.TMobileLTE)
	m.RunUntil(5)
	m.RunUntil(2)
	if m.Now() != 5 {
		t.Errorf("Now() = %v after RunUntil(5), RunUntil(2); want 5", m.Now())
	}
}

// TestPacketCancelsIdleStep checks that a packet cancels the pending Idle
// step: it never fires and is not counted.
func TestPacketCancelsIdleStep(t *testing.T) {
	m := newM(t, radio.TMobileSALowBand) // tail 10.4 s + 5 s inactive
	m.Obs = obs.New()
	d := m.DataActivity()
	m.RunUntil(d + 11) // the Idle step is due at d + 15.4
	if m.CurrentState() != Inactive || m.Events != 2 {
		t.Fatalf("at d+11: state %v, %d events; want Inactive, 2", m.CurrentState(), m.Events)
	}
	m.DataActivity() // resume
	m.RunUntil(d + 16)
	if m.Events != 3 {
		t.Errorf("%d events, want 3: only the resume completion fires", m.Events)
	}
	if got := m.CurrentState(); got != TailNR {
		t.Errorf("state at d+16 = %v, want TailNR", got)
	}

	// A TailLTE packet on a DRX wake reconnects at once and sets no new
	// step, so only the cancel keeps the Idle step (due at 12.33) away.
	m2 := newM(t, radio.TMobileNSALowBand)
	m2.Obs = obs.New()
	m2.DataActivity()
	m2.RunUntil(m2.tailAt) // TailLTE begins: a DRX wake
	if got := m2.DataActivity(); got != 0 || m2.CurrentState() != Connected {
		t.Fatalf("TailLTE packet on a wake: delay %v, state %v; want 0, Connected", got, m2.CurrentState())
	}
	m2.RunUntil(13)
	if m2.Events != 2 {
		t.Errorf("%d events, want 2: promotion and tail only", m2.Events)
	}
	for _, tr := range append(transitions(t, m), transitions(t, m2)...) {
		if tr.To == Idle {
			t.Errorf("cancelled Idle step fired: %v", tr)
		}
	}
}

// TestTieFiresStepFirst checks the tie rule: with a zero tail the
// inactivity deadline lands on the promotion completion, and the
// promotion, set first, completes first.
func TestTieFiresStepFirst(t *testing.T) {
	cfg := MustConfig(radio.TMobileLTE)
	cfg.TailMs = 0
	m := NewMachine(cfg)
	m.Obs = obs.New()
	m.RunUntil(m.DataActivity())
	want := []State{Promoting, Connected, Idle}
	log := transitions(t, m)
	if m.Events != 2 || len(log) != len(want) {
		t.Fatalf("%d events, log %v; want 2 events, %v", m.Events, log, want)
	}
	for i, tr := range log {
		if tr.To != want[i] {
			t.Errorf("transition %d to %v, want %v", i, tr.To, want[i])
		}
	}
}

// TestNegativeDelayCountsAsZero checks that a deadline set with a
// negative delay fires at the current time, never in the past.
func TestNegativeDelayCountsAsZero(t *testing.T) {
	cfg := MustConfig(radio.TMobileSALowBand)
	cfg.InactiveDwellMs = -1000
	m := NewMachine(cfg)
	m.Obs = obs.New()
	d := m.DataActivity()
	m.RunUntil(d + 11)
	log := transitions(t, m)
	last := log[len(log)-1]
	if last.To != Idle || math.Abs(last.At-10.741) > 1e-9 || m.Events != 3 {
		t.Errorf("last transition %v at %v after %d events; want RRC_IDLE at the tail expiry 10.741 after 3",
			last.To, last.At, m.Events)
	}
}
