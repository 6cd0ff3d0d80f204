// Package rrc implements the Radio Resource Control state machines of the
// measured networks: 4G/LTE, NSA 5G (LTE-anchored EN-DC), and SA 5G with the
// new RRC_INACTIVE state.
//
// The machine reproduces the externally observable behaviour that the
// paper's RRC-Probe tool measures (§4.2, Table 7, Fig. 10/25):
//
//   - promotion delays from RRC_IDLE, gated on the idle-mode paging (DRX)
//     cycle;
//   - the connected-mode inactivity ("tail") timer with long-DRX wakeups;
//   - on NSA deployments, a second LTE-only tail after the NR leg releases,
//     during which packets arrive over 4G with higher latency;
//   - on SA deployments, an RRC_INACTIVE dwell (~5 s) after the tail from
//     which the UE resumes quickly and cheaply.
//
// All timing is driven by a sim.Engine so experiments are deterministic.
package rrc

import (
	"fmt"
	"math"

	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
	"fivegsim/internal/sim"
)

// State is the externally visible RRC state of the UE.
type State int

const (
	// Idle is RRC_IDLE: radio asleep except for paging occasions.
	Idle State = iota
	// Promoting is the transition from Idle (or Inactive) to Connected:
	// control-plane signalling is in flight and data is stalled.
	Promoting
	// Connected is RRC_CONNECTED with recent data activity (continuous
	// reception).
	Connected
	// TailNR is RRC_CONNECTED after data inactivity, before the (first)
	// tail timer expires: the radio cycles through connected-mode DRX. On
	// NSA networks the NR leg is still attached in this phase.
	TailNR
	// TailLTE exists only on NSA networks that keep the LTE anchor
	// connected after the NR leg releases (the bracketed second timer in
	// Table 7); packets arriving here flow over 4G.
	TailLTE
	// Inactive is the SA-only RRC_INACTIVE state: radio sleeping like
	// Idle, but with a lightweight, fast resume path to Connected.
	Inactive
)

func (s State) String() string {
	switch s {
	case Idle:
		return "RRC_IDLE"
	case Promoting:
		return "PROMOTING"
	case Connected:
		return "RRC_CONNECTED"
	case TailNR:
		return "TAIL"
	case TailLTE:
		return "TAIL_LTE"
	case Inactive:
		return "RRC_INACTIVE"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Radio identifies which radio leg currently carries (or would carry) user
// data.
type Radio int

const (
	// RadioNone means no data path (idle/inactive).
	RadioNone Radio = iota
	// Radio4G means data flows over the LTE leg.
	Radio4G
	// Radio5G means data flows over the NR leg.
	Radio5G
)

func (r Radio) String() string {
	switch r {
	case Radio4G:
		return "4G"
	case Radio5G:
		return "5G"
	default:
		return "none"
	}
}

// Config holds the RRC parameters for one network deployment. Times are in
// milliseconds, matching Table 7 of the paper.
type Config struct {
	Network radio.Network

	// TailMs is the UE-inactivity timer: time in RRC_CONNECTED after the
	// last packet before leaving the (NR) connected state.
	TailMs float64
	// LTETailMs, when nonzero (NSA only), extends an LTE-connected tail to
	// this total duration after the last packet; between TailMs and
	// LTETailMs packets arrive over 4G.
	LTETailMs float64
	// LongDRXMs is the connected-mode long DRX cycle during the tail.
	LongDRXMs float64
	// IdleDRXMs is the idle-mode paging cycle.
	IdleDRXMs float64
	// Promo4GMs is the RRC_IDLE -> LTE_RRC_CONNECTED promotion delay
	// (zero on SA networks, which have no LTE anchor).
	Promo4GMs float64
	// Promo5GMs is the total delay from leaving RRC_IDLE until data flows
	// over NR. Zero means the NR leg is available immediately on
	// promotion (Verizon's DSS low-band) or, for pure-LTE networks, never.
	Promo5GMs float64
	// InactiveDwellMs is the SA-only time spent in RRC_INACTIVE between
	// the tail and RRC_IDLE (~5 s on T-Mobile SA).
	InactiveDwellMs float64
	// ResumeMs is the SA-only RRC_INACTIVE -> RRC_CONNECTED resume delay;
	// much shorter than a full idle promotion.
	ResumeMs float64

	// TailPowerMw is the mean radio power during the tail (Table 2).
	TailPowerMw float64
	// SwitchPowerMw is the extra power drawn during the 4G -> 5G switch
	// (Table 2); on SA networks it is the promotion power.
	SwitchPowerMw float64
	// IdlePowerMw / InactivePowerMw are the radio's contribution in
	// RRC_IDLE and RRC_INACTIVE.
	IdlePowerMw     float64
	InactivePowerMw float64
}

// Is5G reports whether the deployment has an NR data plane.
func (c Config) Is5G() bool { return c.Network.Mode != radio.ModeLTE }

// Configs for every measured deployment (Table 7 + Table 2). Map key is
// radio.Network.Key().
var builtin = map[string]Config{
	radio.TMobileSALowBand.Key(): {
		Network: radio.TMobileSALowBand,
		TailMs:  10400, LongDRXMs: 40, IdleDRXMs: 1250,
		Promo4GMs: 0, Promo5GMs: 341,
		InactiveDwellMs: 5000, ResumeMs: 110,
		TailPowerMw: 593, SwitchPowerMw: 245, IdlePowerMw: 18, InactivePowerMw: 45,
	},
	radio.TMobileNSALowBand.Key(): {
		Network: radio.TMobileNSALowBand,
		TailMs:  10400, LTETailMs: 12120, LongDRXMs: 320, IdleDRXMs: 1200,
		Promo4GMs: 210, Promo5GMs: 1440,
		TailPowerMw: 260, SwitchPowerMw: 699, IdlePowerMw: 18,
	},
	radio.VerizonNSAmmWave.Key(): {
		Network: radio.VerizonNSAmmWave,
		TailMs:  10500, LongDRXMs: 320, IdleDRXMs: 1280,
		Promo4GMs: 396, Promo5GMs: 1907,
		TailPowerMw: 1092, SwitchPowerMw: 1494, IdlePowerMw: 22,
	},
	radio.VerizonNSALowBand.Key(): {
		Network: radio.VerizonNSALowBand,
		TailMs:  10200, LTETailMs: 18800, LongDRXMs: 400, IdleDRXMs: 1100,
		Promo4GMs: 288, Promo5GMs: 0, // DSS: NR shares the LTE carrier, no separate promotion
		TailPowerMw: 249, SwitchPowerMw: 799, IdlePowerMw: 20,
	},
	radio.TMobileLTE.Key(): {
		Network: radio.TMobileLTE,
		TailMs:  5000, LongDRXMs: 400, IdleDRXMs: 1300,
		Promo4GMs:   190,
		TailPowerMw: 66, IdlePowerMw: 12,
	},
	radio.VerizonLTE.Key(): {
		Network: radio.VerizonLTE,
		TailMs:  10200, LongDRXMs: 300, IdleDRXMs: 1280,
		Promo4GMs:   265,
		TailPowerMw: 178, IdlePowerMw: 14,
	},
}

// ConfigFor returns the RRC configuration of a measured deployment.
func ConfigFor(n radio.Network) (Config, error) {
	c, ok := builtin[n.Key()]
	if !ok {
		return Config{}, fmt.Errorf("rrc: no RRC configuration for network %s", n)
	}
	return c, nil
}

// MustConfig is ConfigFor for the built-in networks; it panics on unknown
// networks and is intended for experiment setup code.
func MustConfig(n radio.Network) Config {
	c, err := ConfigFor(n)
	if err != nil {
		panic(err)
	}
	return c
}

// Transition records one observed state change, for handoff/state logging.
type Transition struct {
	At       float64 // simulation time, seconds
	From, To State
}

// Machine is the per-UE RRC state machine. Create with NewMachine; drive it
// by calling DataActivity whenever a packet is sent or received.
type Machine struct {
	eng *sim.Engine
	cfg Config

	state       State
	stateSince  float64 // when the current state was entered
	lastData    float64 // time of last data activity (packet fully served)
	connectedAt float64 // when an in-flight promotion completes
	nrAt        float64 // when the NR leg becomes the data path (NSA)

	tailTimer *sim.Timer // fires the demotion cascade
	demoteEvs []sim.Event

	// OnTransition, if set, is invoked on every state change.
	OnTransition func(tr Transition)
	// Log accumulates transitions when LogTransitions is true.
	LogTransitions bool
	Log            []Transition
	// Obs, when non-nil, receives a trace record per state transition and
	// per-state dwell-time histograms (sim-time stamped; nil costs nothing).
	Obs *obs.Obs
}

// dwellBounds are the histogram buckets (seconds) for per-state dwell
// times, spanning DRX wakes (~40 ms) through the ~10 s tails of Table 7.
var dwellBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 20, 60}

// NewMachine returns a machine in RRC_IDLE at the engine's current time.
func NewMachine(eng *sim.Engine, cfg Config) *Machine {
	m := &Machine{eng: eng, cfg: cfg, state: Idle, stateSince: eng.Now(),
		lastData: math.Inf(-1)}
	m.tailTimer = sim.NewTimer(eng, m.onTailExpiry)
	return m
}

// Config returns the machine's RRC configuration.
func (m *Machine) Config() Config { return m.cfg }

// State returns the current RRC state.
func (m *Machine) State() State { return m.state }

func (m *Machine) setState(s State) { m.setStateAt(m.eng.Now(), s) }

// setStateAt is the single transition point of the machine: every state
// change — including the lazily backdated Connected -> TailNR edge from
// refresh — funnels through here, so the Log, OnTransition, and obs
// emissions happen exactly once per transition and stateSince bookkeeping
// lives in one place. t may be earlier than the engine clock (a backdated
// edge); it is never earlier than the previous transition.
func (m *Machine) setStateAt(t float64, s State) {
	if s == m.state {
		return
	}
	tr := Transition{At: t, From: m.state, To: s}
	if m.Obs.Enabled() {
		dwell := t - m.stateSince
		m.Obs.Trace().Emit(obs.Span(m.stateSince, dwell, "rrc", "transition").
			With(obs.S("from", tr.From.String())).
			With(obs.S("to", tr.To.String())))
		m.Obs.Meter().Inc("rrc.transitions")
		m.Obs.Meter().Hist("rrc.dwell_s."+tr.From.String(), dwellBounds).Observe(dwell)
	}
	m.state = s
	m.stateSince = t
	if m.LogTransitions {
		m.Log = append(m.Log, tr)
	}
	if m.OnTransition != nil {
		m.OnTransition(tr)
	}
}

func (m *Machine) cancelDemotions() {
	for _, ev := range m.demoteEvs {
		m.eng.Cancel(ev)
	}
	m.demoteEvs = m.demoteEvs[:0]
	m.tailTimer.Stop()
}

// onTailExpiry runs when the UE-inactivity timer fires: the connected state
// ends and the network-specific demotion cascade begins.
func (m *Machine) onTailExpiry() {
	m.refresh() // record the Connected -> TailNR edge before demoting
	switch m.cfg.Network.Mode {
	case radio.ModeSA:
		m.setState(Inactive)
		m.demoteEvs = append(m.demoteEvs, m.eng.Schedule(m.cfg.InactiveDwellMs/1000, func() {
			m.setState(Idle)
		}))
	case radio.ModeNSA:
		if m.cfg.LTETailMs > m.cfg.TailMs {
			m.setState(TailLTE)
			rest := (m.cfg.LTETailMs - m.cfg.TailMs) / 1000
			m.demoteEvs = append(m.demoteEvs, m.eng.Schedule(rest, func() {
				m.setState(Idle)
			}))
		} else {
			m.setState(Idle)
		}
	default:
		m.setState(Idle)
	}
}

// drxWait returns the time until the next wakeup of a DRX cycle of length
// cycleMs that started (phase zero) at startTime. A zero or negative cycle
// yields no wait.
func (m *Machine) drxWait(startTime, cycleMs float64) float64 {
	if cycleMs <= 0 {
		return 0
	}
	cycle := cycleMs / 1000
	elapsed := m.eng.Now() - startTime
	if elapsed < 0 {
		return 0
	}
	rem := math.Mod(elapsed, cycle)
	if rem < 1e-9 {
		return 0 // exactly on a wake occasion
	}
	return cycle - rem
}

// DataActivity informs the machine that a packet needs to be delivered now.
// It returns the control-plane delay (seconds) the packet experiences before
// the data path is available: paging-cycle alignment plus promotion delay
// from Idle, resume delay from Inactive, DRX-wake alignment during the tail,
// and zero in continuous reception. It also (re)arms the inactivity timer.
func (m *Machine) DataActivity() float64 {
	m.refresh()
	now := m.eng.Now()
	var delay float64
	switch m.state {
	case Idle:
		wait := m.drxWait(m.stateSince, m.cfg.IdleDRXMs)
		promo := m.cfg.Promo4GMs / 1000
		if m.cfg.Network.Mode == radio.ModeSA {
			promo = m.cfg.Promo5GMs / 1000
		}
		delay = wait + promo
		m.beginPromotion(delay)
	case Inactive:
		delay = m.cfg.ResumeMs / 1000
		m.beginPromotion(delay)
	case Promoting:
		if m.connectedAt > now {
			delay = m.connectedAt - now
		}
	case TailNR:
		delay = m.drxWait(m.stateSince, m.cfg.LongDRXMs)
		m.reconnect(delay)
	case TailLTE:
		// The NR leg has released; the packet flows over LTE after the
		// LTE DRX wake, and the NR leg must re-promote. Even on DSS
		// deployments (Promo5GMs == 0) re-adding the secondary cell takes
		// a round of EN-DC signalling, so the reply itself rides 4G.
		delay = m.drxWait(m.stateSince, m.cfg.LongDRXMs)
		m.reconnect(delay)
		readd := m.cfg.Promo5GMs / 1000
		if readd < minSCGReaddS {
			readd = minSCGReaddS
		}
		m.nrAt = now + delay + readd
	case Connected:
		delay = 0
	}
	served := now + delay
	if served > m.lastData {
		m.lastData = served
	}
	m.tailTimer.Reset(served - now + m.cfg.TailMs/1000)
	return delay
}

// beginPromotion moves Idle/Inactive -> Promoting -> Connected, computing
// when the NR data path becomes available.
func (m *Machine) beginPromotion(delay float64) {
	now := m.eng.Now()
	// cancelDemotions just Stop()ed tailTimer, so it is disarmed and
	// reusable; allocating a fresh sim.Timer here would churn a Timer (and
	// its fire closure) on every promotion over a long mobility run.
	m.cancelDemotions()
	m.connectedAt = now + delay
	switch m.cfg.Network.Mode {
	case radio.ModeSA:
		m.nrAt = m.connectedAt
	case radio.ModeNSA:
		if m.cfg.Promo5GMs > 0 {
			m.nrAt = now + m.cfg.Promo5GMs/1000
			// delay folds in the idle-DRX paging wait, which the 5G
			// promotion clock above does not see: with a long paging cycle
			// the NR leg would otherwise come up before the LTE anchor is
			// even connected, which EN-DC forbids (the secondary cell group
			// is added by the anchor's RRC signalling).
			if m.nrAt < m.connectedAt {
				m.nrAt = m.connectedAt
			}
		} else {
			m.nrAt = m.connectedAt // DSS: NR immediately available
		}
	default:
		m.nrAt = math.Inf(1) // LTE-only: never
	}
	m.setState(Promoting)
	m.demoteEvs = append(m.demoteEvs, m.eng.Schedule(delay, func() {
		if m.state == Promoting {
			m.setState(Connected)
		}
	}))
}

// reconnect moves a tail state back to Connected after a DRX-wake delay.
func (m *Machine) reconnect(delay float64) {
	m.cancelDemotions() // tailTimer is now disarmed and reused as-is
	if delay <= 0 {
		m.setState(Connected)
		return
	}
	m.connectedAt = m.eng.Now() + delay
	m.setState(Promoting)
	m.demoteEvs = append(m.demoteEvs, m.eng.Schedule(delay, func() {
		if m.state == Promoting {
			m.setState(Connected)
		}
	}))
}

// minSCGReaddS is the minimum time to re-add the NR secondary cell group
// after it was released (one round of EN-DC signalling), applied when the
// configured 5G promotion delay is smaller (DSS deployments).
const minSCGReaddS = 0.4

// tailThresholdS is how long after the last packet the UE stays in
// continuous reception before connected-mode DRX kicks in (the short-DRX
// region RRC-Probe cannot resolve; §A.3).
const tailThresholdS = 0.1

// refresh updates the Connected/TailNR distinction based on elapsed
// inactivity. Called lazily from the query methods. The transition is
// backdated to the instant inactivity began (the DRX phase anchor) and goes
// through setStateAt like every other edge.
func (m *Machine) refresh() {
	if m.state == Connected && m.eng.Now()-m.lastData > tailThresholdS {
		m.setStateAt(m.lastData+tailThresholdS, TailNR)
	}
}

// CurrentState returns the state after accounting for lapsed continuous
// reception (Connected silently becomes TailNR after 100 ms without data).
func (m *Machine) CurrentState() State {
	m.refresh()
	return m.state
}

// ActiveRadio reports which radio leg would carry a packet right now.
func (m *Machine) ActiveRadio() Radio {
	m.refresh()
	switch m.state {
	case Idle, Inactive:
		return RadioNone
	case TailLTE:
		return Radio4G
	}
	if !m.cfg.Is5G() {
		return Radio4G
	}
	if m.eng.Now() >= m.nrAt {
		return Radio5G
	}
	return Radio4G
}

// RadioPowerMw returns the radio's baseline power draw in the current state,
// excluding the throughput-dependent component (which internal/power adds
// for active transfers): tail power during DRX tails, switch power during
// promotion, idle/inactive floor otherwise.
func (m *Machine) RadioPowerMw() float64 {
	m.refresh()
	switch m.state {
	case Idle:
		return m.cfg.IdlePowerMw
	case Inactive:
		if m.cfg.InactivePowerMw > 0 {
			return m.cfg.InactivePowerMw
		}
		return m.cfg.IdlePowerMw
	case Promoting:
		if m.cfg.SwitchPowerMw > 0 {
			return m.cfg.SwitchPowerMw
		}
		return m.cfg.TailPowerMw
	case TailNR, TailLTE:
		return m.cfg.TailPowerMw
	default: // Connected, continuous reception: caller adds transfer power
		return m.cfg.TailPowerMw
	}
}
