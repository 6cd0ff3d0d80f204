// Package rrcprobe reimplements RRC-Probe, the paper's unrooted RRC state
// inference tool (§4.1): a server sends UDP packets to the UE at increasing
// idle intervals, the UE acknowledges each, and the measured RTT reveals the
// RRC state the UE was in when the packet arrived — continuous reception
// (base RTT), connected-mode DRX (base + DRX wake), the NSA LTE-only tail
// (4G-grade RTT), SA RRC_INACTIVE (fast resume), or RRC_IDLE (paging wait +
// full promotion).
//
// From the RTT-versus-idle-gap profile the package infers the Table 7
// parameters: the tail timer, the NSA second (LTE) tail, the SA
// RRC_INACTIVE window, and the promotion delays — without any access to
// modem diagnostics, exactly like the paper's approach.
package rrcprobe

import (
	"fmt"
	"math/rand"
	"sort"

	"fivegsim/internal/radio"
	"fivegsim/internal/rrc"
	"fivegsim/internal/stats"
)

// Sample is one probe observation.
type Sample struct {
	// IdleGapS is the quiet time before the probe packet.
	IdleGapS float64
	// RTTMs is the measured round-trip time.
	RTTMs float64
	// Radio is the interface that carried the reply (observable on the UE
	// from the network-type API, no root needed).
	Radio rrc.Radio
	// State is the ground-truth RRC state when the packet arrived; the
	// real tool cannot see this — it is recorded for validation only.
	State rrc.State
}

// Prober runs RRC-Probe against one network deployment.
type Prober struct {
	Config rrc.Config
	// Base4GMs / Base5GMs are the data-plane RTTs over the LTE and NR
	// legs (from the probing server, typically carrier-hosted nearby).
	Base4GMs float64
	Base5GMs float64
	// Events counts the RRC deadlines fired by the prober's machines.
	Events uint64

	rng *rand.Rand
}

// New creates a prober for a network using its built-in RRC configuration
// and nearby-server base RTTs derived from the band air latencies.
func New(n radio.Network, seed int64) (*Prober, error) {
	cfg, err := rrc.ConfigFor(n)
	if err != nil {
		return nil, err
	}
	const coreAndPathMs = 3.0 // carrier-hosted server in the UE's city
	p := &Prober{
		Config:   cfg,
		Base4GMs: radio.BandLTE.AirRTTMs + coreAndPathMs,
		Base5GMs: n.Band.AirRTTMs + coreAndPathMs,
		rng:      rand.New(rand.NewSource(seed)),
	}
	if n.Mode == radio.ModeLTE {
		p.Base5GMs = p.Base4GMs
	}
	return p, nil
}

// ProbeOnce measures the RTT of a single packet that arrives after the UE
// has been idle for gap seconds (measured from its last data activity).
func (p *Prober) ProbeOnce(gapS float64) Sample {
	m := rrc.NewMachine(p.Config)
	// Prime the connection with one packet, then go quiet.
	d0 := m.DataActivity()
	m.RunUntil(m.Now() + d0 + 1e-3)
	// The probe arrives gap seconds after the priming packet was served,
	// plus a small random offset: the real tool cannot phase-align its
	// probes with the UE's DRX cycle, and that misalignment is what turns
	// the deterministic DRX sawtooth into the scatter of Fig. 10.
	m.RunUntil(m.Now() + gapS + float64(p.rng.Float64()*0.4))
	st := m.CurrentState()
	delay := m.DataActivity()
	m.RunUntil(m.Now() + delay)
	p.Events += m.Events
	r := m.ActiveRadio()
	base := p.Base5GMs
	if r == rrc.Radio4G {
		base = p.Base4GMs
	}
	jitter := p.rng.ExpFloat64() * 1.2
	if jitter > 20 {
		jitter = 20
	}
	return Sample{IdleGapS: gapS, RTTMs: float64(delay*1000) + base + jitter, Radio: r, State: st}
}

// Run sweeps idle gaps from 0 to maxGapS in steps of stepS, probing perGap
// times at each gap (the Fig. 10 scatter).
func (p *Prober) Run(maxGapS, stepS float64, perGap int) []Sample {
	if perGap < 1 {
		perGap = 1
	}
	var out []Sample
	for gap := 0.0; gap <= maxGapS+1e-9; gap += stepS {
		for i := 0; i < perGap; i++ {
			out = append(out, p.ProbeOnce(gap))
		}
	}
	return out
}

// Inference is the parameter set RRC-Probe extracts from a sample sweep.
type Inference struct {
	// TailS is the inferred UE-inactivity (tail) timer.
	TailS float64
	// LTETailS is the inferred end of the NSA LTE-only tail (zero when
	// absent).
	LTETailS float64
	// InactiveUntilS is the inferred end of the SA RRC_INACTIVE window
	// (zero when absent).
	InactiveUntilS float64
	// PromoMs estimates the full idle promotion delay: the median
	// idle-region RTT minus the connected-region RTT (includes the mean
	// paging wait).
	PromoMs float64
	// ConnectedRTTMs is the median RTT while in connected/DRX.
	ConnectedRTTMs float64
}

// aggregateByGap groups samples by idle gap and returns sorted gaps with,
// per gap: the minimum RTT (the DRX-wait-free floor — the robust level
// indicator), the median RTT, and the majority reply radio.
func aggregateByGap(samples []Sample) (gaps, minRTT, medRTT []float64, radios []rrc.Radio) {
	byGap := map[float64][]Sample{}
	for _, s := range samples {
		byGap[s.IdleGapS] = append(byGap[s.IdleGapS], s)
	}
	for g := range byGap {
		gaps = append(gaps, g)
	}
	sort.Float64s(gaps)
	for _, g := range gaps {
		var rtts []float64
		c4, c5 := 0, 0
		for _, s := range byGap[g] {
			rtts = append(rtts, s.RTTMs)
			switch s.Radio {
			case rrc.Radio4G:
				c4++
			case rrc.Radio5G:
				c5++
			}
		}
		minRTT = append(minRTT, stats.Min(rtts))
		medRTT = append(medRTT, stats.Median(rtts))
		if c4 > c5 {
			radios = append(radios, rrc.Radio4G)
		} else {
			radios = append(radios, rrc.Radio5G)
		}
	}
	return gaps, minRTT, medRTT, radios
}

// Infer extracts RRC parameters from a probe sweep. It needs samples dense
// enough to bracket the transitions (the resolution of the inferred timers
// equals the gap step used in Run). The detection logic works on RTT levels:
// the connected tail sits at base RTT plus half a long-DRX cycle, the idle
// region at paging wait plus a full promotion, and intermediate plateaus
// reveal the NSA LTE-only tail (reply over 4G) or SA RRC_INACTIVE (fast
// resume over 5G).
func Infer(samples []Sample) (Inference, error) {
	if len(samples) == 0 {
		return Inference{}, fmt.Errorf("rrcprobe: no samples")
	}
	gaps, minRTT, _, radios := aggregateByGap(samples)
	inf := Inference{ConnectedRTTMs: minRTT[0]}

	maxRTT := stats.Max(minRTT)
	// A genuine idle region raises the RTT floor by at least a promotion
	// delay (>= ~190 ms); anything smaller is DRX noise within the tail.
	if maxRTT < inf.ConnectedRTTMs+150 {
		return inf, fmt.Errorf("rrcprobe: sweep never left the connected state (max RTT floor %.1f ms)", maxRTT)
	}
	// Idle promotions cost hundreds of ms; a threshold at 60% of the way
	// from the connected floor to the maximum floor separates them robustly
	// from every tail/inactive plateau.
	idleThresh := inf.ConnectedRTTMs + float64(0.6*(maxRTT-inf.ConnectedRTTMs))
	idleStart := -1.0
	var idleRTTs []float64
	for i, g := range gaps {
		if minRTT[i] >= idleThresh {
			if idleStart < 0 {
				idleStart = g
			}
			idleRTTs = append(idleRTTs, minRTT[i])
		}
	}
	if idleStart < 0 {
		return inf, fmt.Errorf("rrcprobe: no idle region found")
	}
	inf.PromoMs = stats.Median(idleRTTs) - inf.ConnectedRTTMs

	// Calibrate the step threshold to the sampling noise of the tail
	// floor: with few probes per gap the minimum does not always reach the
	// DRX-free base RTT, and that residual scales with the (unknown) DRX
	// cycle. The early tail region (clear of any transition) reveals it.
	earlySpread := 0.0
	for i, g := range gaps {
		if g >= 1 && g < idleStart/3 {
			if sp := minRTT[i] - inf.ConnectedRTTMs; sp > earlySpread {
				earlySpread = sp
			}
		}
	}
	stepThresh := inf.ConnectedRTTMs + 60 + earlySpread

	// The tail-region radio: on NSA networks the first packets after a
	// promotion ride the LTE anchor until the NR leg attaches, so the
	// representative radio comes from the middle of the tail, not gap 0.
	tailRadio := radios[0]
	c4, c5 := 0, 0
	for i, g := range gaps {
		if g >= 1 && g <= idleStart/2 {
			switch radios[i] {
			case rrc.Radio4G:
				c4++
			case rrc.Radio5G:
				c5++
			}
		}
	}
	if c5 > c4 {
		tailRadio = rrc.Radio5G
	} else if c4 > 0 {
		tailRadio = rrc.Radio4G
	}

	// Walk the low region looking for the first persistent departure from
	// the tail plateau: a radio fallback to 4G (NSA LTE tail) or a step up
	// of the RTT floor (SA RRC_INACTIVE resume). Requiring two consecutive
	// gaps suppresses DRX-sampling flukes. If neither occurs, the tail
	// ends directly in idle.
	inf.TailS = idleStart
	persists := func(i int, pred func(int) bool) bool {
		if !pred(i) {
			return false
		}
		if i+1 < len(gaps) && gaps[i+1] < idleStart {
			return pred(i + 1)
		}
		return true
	}
	step := idleStart
	if len(gaps) > 1 {
		step = gaps[1] - gaps[0]
	}
	for i, g := range gaps {
		// A real intermediate state spans at least two gap steps, so a
		// candidate adjacent to the idle boundary is a sampling fluke.
		if g < 1 || g >= idleStart-step-1e-9 {
			continue
		}
		if tailRadio == rrc.Radio5G &&
			persists(i, func(j int) bool { return radios[j] == rrc.Radio4G }) {
			inf.TailS = g
			inf.LTETailS = idleStart
			break
		}
		if persists(i, func(j int) bool { return minRTT[j] > stepThresh }) {
			inf.TailS = g
			inf.InactiveUntilS = idleStart
			break
		}
	}
	return inf, nil
}

// MeasurePromoIdle measures the RRC_IDLE promotion delay in milliseconds:
// the extra latency of a packet arriving exactly on a paging occasion while
// the UE is idle. For NSA networks this is the 4G promotion delay (the first
// reply flows over the LTE anchor); for SA networks it is the 5G promotion.
func (p *Prober) MeasurePromoIdle() float64 {
	m := rrc.NewMachine(p.Config)
	// t = 0 is paging-phase aligned, so the paging wait is zero and the
	// measured delay is the pure promotion time.
	return m.DataActivity() * 1000
}

// MeasurePromo5G measures how long after leaving RRC_IDLE the data path
// first runs over NR, in milliseconds (Table 7's "5G promotion delay").
// ok is false on LTE-only networks, which never attach NR.
func (p *Prober) MeasurePromo5G() (ms float64, ok bool) {
	if p.Config.Network.Mode == radio.ModeLTE {
		return 0, false
	}
	m := rrc.NewMachine(p.Config)
	defer func() { p.Events += m.Events }()
	d := m.DataActivity()
	m.RunUntil(m.Now() + d)
	start := 0.0 // promotion began at t=0 (paging-aligned)
	const step, timeout = 0.010, 30.0
	for m.Now() < timeout {
		if m.ActiveRadio() == rrc.Radio5G {
			return (m.Now() - start) * 1000, true
		}
		m.DataActivity() // keep the connection alive
		m.RunUntil(m.Now() + step)
	}
	return 0, false
}

// StateAt returns the RRC state this inference implies for a packet
// arriving after an idle gap of gapS seconds.
func (inf Inference) StateAt(gapS float64) rrc.State {
	idleFrom := inf.TailS
	switch {
	case inf.LTETailS > 0:
		idleFrom = inf.LTETailS
	case inf.InactiveUntilS > 0:
		idleFrom = inf.InactiveUntilS
	}
	switch {
	case gapS >= idleFrom:
		return rrc.Idle
	case inf.LTETailS > 0 && gapS >= inf.TailS:
		return rrc.TailLTE
	case inf.InactiveUntilS > 0 && gapS >= inf.TailS:
		return rrc.Inactive
	default:
		return rrc.TailNR
	}
}

// Accuracy scores the inference against the ground-truth states recorded in
// the samples (which the real tool never sees — this is the validation the
// simulation substrate makes possible). Samples within margin seconds of an
// inferred boundary are skipped: the probe's anti-aliasing offset blurs
// exactly that band.
func (inf Inference) Accuracy(samples []Sample, marginS float64) float64 {
	boundaries := []float64{inf.TailS, inf.LTETailS, inf.InactiveUntilS}
	nearBoundary := func(g float64) bool {
		for _, b := range boundaries {
			if b > 0 && g >= b-marginS && g <= b+marginS {
				return true
			}
		}
		return false
	}
	ok, n := 0, 0
	for _, s := range samples {
		if nearBoundary(s.IdleGapS) {
			continue
		}
		truth := s.State
		if truth == rrc.Connected {
			truth = rrc.TailNR // continuous reception and DRX are one region
		}
		n++
		if inf.StateAt(s.IdleGapS) == truth {
			ok++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}
