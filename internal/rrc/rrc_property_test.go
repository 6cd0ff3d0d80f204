package rrc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
)

// TestMachineInvariantsProperty drives every network's machine through a
// random packet schedule and checks structural invariants:
//
//   - DataActivity never returns a negative delay, and the delay is bounded
//     by one paging cycle plus the largest promotion;
//   - transitions only follow legal edges;
//   - an LTE-only network never reports a 5G radio or SA-only states;
//   - RadioPowerMw is always positive and bounded.
func TestMachineInvariantsProperty(t *testing.T) {
	legal := map[[2]State]bool{
		{Idle, Promoting}:      true,
		{Inactive, Promoting}:  true,
		{Promoting, Connected}: true,
		{Connected, TailNR}:    true,
		{TailNR, Promoting}:    true,
		{TailNR, Connected}:    true,
		{TailNR, TailLTE}:      true,
		{TailNR, Inactive}:     true,
		{TailNR, Idle}:         true,
		{TailLTE, Promoting}:   true,
		{TailLTE, Connected}:   true,
		{TailLTE, Idle}:        true,
		{Inactive, Idle}:       true,
		// A tail expiring exactly while state still reads Connected.
		{Connected, TailLTE}:  true,
		{Connected, Inactive}: true,
		{Connected, Idle}:     true,
	}
	f := func(seed int64, netIdx uint8) bool {
		n := radio.AllNetworks[int(netIdx)%len(radio.AllNetworks)]
		cfg := MustConfig(n)
		m := NewMachine(cfg)
		m.Obs = obs.New()
		rng := rand.New(rand.NewSource(seed))
		maxDelay := (cfg.IdleDRXMs + cfg.Promo4GMs + cfg.Promo5GMs + cfg.LongDRXMs) / 1000

		for i := 0; i < 60; i++ {
			// Random gaps spanning all regimes: sub-second to beyond idle.
			gap := rng.Float64() * 25
			m.RunUntil(m.Now() + gap)
			d := m.DataActivity()
			if d < 0 {
				t.Logf("%s: negative delay %v", n, d)
				return false
			}
			if d > maxDelay+0.5 {
				t.Logf("%s: delay %v exceeds bound %v", n, d, maxDelay)
				return false
			}
			m.RunUntil(m.Now() + d)
			if p := m.RadioPowerMw(); p <= 0 || p > 4000 {
				t.Logf("%s: implausible power %v in %v", n, p, m.CurrentState())
				return false
			}
			if n.Mode == radio.ModeLTE && m.ActiveRadio() == Radio5G {
				t.Logf("%s: LTE network on 5G radio", n)
				return false
			}
		}
		for _, tr := range transitions(t, m) {
			if !legal[[2]State{tr.From, tr.To}] {
				t.Logf("%s: illegal transition %v -> %v", n, tr.From, tr.To)
				return false
			}
			if n.Mode != radio.ModeSA && tr.To == Inactive {
				t.Logf("%s: non-SA network entered RRC_INACTIVE", n)
				return false
			}
			if n.Mode != radio.ModeNSA && tr.To == TailLTE {
				t.Logf("%s: non-NSA network entered TailLTE", n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTransitionLogMonotoneProperty verifies transition timestamps are
// nondecreasing under random schedules.
func TestTransitionLogMonotoneProperty(t *testing.T) {
	f := func(seed int64, netIdx uint8) bool {
		n := radio.AllNetworks[int(netIdx)%len(radio.AllNetworks)]
		m := NewMachine(MustConfig(n))
		m.Obs = obs.New()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 30; i++ {
			m.RunUntil(m.Now() + rng.Float64()*20)
			d := m.DataActivity()
			m.RunUntil(m.Now() + d)
		}
		m.CurrentState()
		log := transitions(t, m)
		for i := 1; i < len(log); i++ {
			if log[i].At < log[i-1].At-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
