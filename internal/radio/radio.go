// Package radio models the cellular radio layer of the study: frequency
// bands (4G/LTE, low-band 5G, mmWave 5G), deployment modes (LTE, NSA, SA),
// signal propagation (RSRP), and the achievable link capacity as a function
// of band, carrier aggregation, and signal strength.
//
// The paper measures two carriers: Verizon (NSA mmWave on n260/n261 plus
// low-band n5 via dynamic spectrum sharing) and T-Mobile (low-band n71 in
// both NSA and SA modes). This package encodes those deployments with
// parameters calibrated so the observable quantities — peak throughput, air
// latency, RSRP ranges, coverage radii — match the distributions the paper
// reports.
package radio

import (
	"fmt"
	"math"
)

// Carrier identifies one of the two measured mobile operators.
type Carrier string

// The two carriers studied in the paper.
const (
	Verizon Carrier = "Verizon"
	TMobile Carrier = "T-Mobile"
)

// Mode is the deployment mode of a network.
type Mode int

const (
	// ModeLTE is plain 4G/LTE service.
	ModeLTE Mode = iota
	// ModeNSA is Non-Standalone 5G: 5G data plane anchored on the 4G
	// control plane (EN-DC). The RRC machine is 4G-like and vertical
	// 4G<->5G switches are frequent.
	ModeNSA
	// ModeSA is Standalone 5G: an independent 5G core with the new
	// RRC_INACTIVE state and no LTE anchor.
	ModeSA
)

func (m Mode) String() string {
	switch m {
	case ModeLTE:
		return "LTE"
	case ModeNSA:
		return "NSA"
	case ModeSA:
		return "SA"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// BandClass groups 5G-NR bands by frequency range, which determines
// propagation, latency, and capacity characteristics.
type BandClass int

const (
	// ClassLTE marks legacy 4G carriers.
	ClassLTE BandClass = iota
	// ClassLowBand is sub-1 GHz NR (n5, n71): wide coverage, modest rates.
	ClassLowBand
	// ClassMidBand is 2.5-3.7 GHz NR (n41): not measured in the paper's
	// dataset but modelled for completeness.
	ClassMidBand
	// ClassMmWave is 24-40 GHz NR (n260, n261): ultra-high bandwidth,
	// severe blockage sensitivity, outdoor small cells.
	ClassMmWave
)

func (c BandClass) String() string {
	switch c {
	case ClassLTE:
		return "LTE"
	case ClassLowBand:
		return "low-band"
	case ClassMidBand:
		return "mid-band"
	case ClassMmWave:
		return "mmWave"
	default:
		return fmt.Sprintf("BandClass(%d)", int(c))
	}
}

// Band describes one radio band and the physical-layer properties the
// experiments depend on.
type Band struct {
	Name    string
	Class   BandClass
	FreqGHz float64
	// SCSkHz is the subcarrier spacing. Higher spacing means shorter OFDM
	// symbols and thus lower air latency (mmWave: 120 kHz vs low-band 15/30).
	SCSkHz float64
	// CCWidthMHz is the bandwidth of one component carrier.
	CCWidthMHz float64
	// PeakDLMbpsPerCC / PeakULMbpsPerCC are per-component-carrier peak
	// rates under perfect signal.
	PeakDLMbpsPerCC float64
	PeakULMbpsPerCC float64
	// CoverageKm is the usable sector radius.
	CoverageKm float64
	// AirRTTMs is the radio interface's contribution to round-trip latency
	// in RRC_CONNECTED (frame structure + scheduling grants). The paper
	// finds mmWave < low-band 5G < LTE (Fig. 2).
	AirRTTMs float64
	// EdgeRSRPDbm / PeakRSRPDbm bound the usable signal range: at
	// PeakRSRP the full per-CC rate is achievable, at EdgeRSRP the link is
	// barely usable.
	EdgeRSRPDbm float64
	PeakRSRPDbm float64
	// PathLossExp is the distance power-law exponent within coverage.
	PathLossExp float64
	// TxRefDbm is the received power at the 1 m reference distance
	// (transmit power + antenna gains - first-meter loss).
	TxRefDbm float64
	// NLoSPenaltyDb is the extra attenuation when line of sight is blocked
	// (bodies, walls, foliage); very large for mmWave.
	NLoSPenaltyDb float64
}

// Standard band definitions for the measured deployments. Exported as
// variables so experiments can reference e.g. radio.BandN260 directly.
var (
	// BandLTE models the carriers' mid-band LTE layer (~1.9 GHz AWS/PCS).
	BandLTE = Band{
		Name: "LTE", Class: ClassLTE, FreqGHz: 1.9, SCSkHz: 15,
		CCWidthMHz: 20, PeakDLMbpsPerCC: 75, PeakULMbpsPerCC: 25,
		CoverageKm: 2.0, AirRTTMs: 17.0,
		EdgeRSRPDbm: -125, PeakRSRPDbm: -85,
		PathLossExp: 3.6, TxRefDbm: -8, NLoSPenaltyDb: 8,
	}
	// BandN5 is Verizon's low-band 5G at 850 MHz, deployed via dynamic
	// spectrum sharing with LTE (so capacity is shared with 4G users).
	BandN5 = Band{
		Name: "n5", Class: ClassLowBand, FreqGHz: 0.85, SCSkHz: 15,
		CCWidthMHz: 10, PeakDLMbpsPerCC: 80, PeakULMbpsPerCC: 30,
		CoverageKm: 3.5, AirRTTMs: 10.5,
		EdgeRSRPDbm: -125, PeakRSRPDbm: -84,
		PathLossExp: 3.3, TxRefDbm: -3, NLoSPenaltyDb: 6,
	}
	// BandN71 is T-Mobile's 600 MHz low-band 5G, the widest-coverage NR
	// layer and the one carrying their SA deployment.
	BandN71 = Band{
		Name: "n71", Class: ClassLowBand, FreqGHz: 0.6, SCSkHz: 15,
		CCWidthMHz: 20, PeakDLMbpsPerCC: 110, PeakULMbpsPerCC: 50,
		CoverageKm: 5.0, AirRTTMs: 10.0,
		EdgeRSRPDbm: -126, PeakRSRPDbm: -84,
		PathLossExp: 3.2, TxRefDbm: -1, NLoSPenaltyDb: 5,
	}
	// BandN41 is T-Mobile's 2.5 GHz mid-band layer (present in select
	// areas; excluded from the paper's dataset but modelled).
	BandN41 = Band{
		Name: "n41", Class: ClassMidBand, FreqGHz: 2.5, SCSkHz: 30,
		CCWidthMHz: 100, PeakDLMbpsPerCC: 700, PeakULMbpsPerCC: 100,
		CoverageKm: 1.5, AirRTTMs: 8.0,
		EdgeRSRPDbm: -120, PeakRSRPDbm: -80,
		PathLossExp: 3.4, TxRefDbm: -12, NLoSPenaltyDb: 12,
	}
	// BandN260 is 39 GHz mmWave.
	BandN260 = Band{
		Name: "n260", Class: ClassMmWave, FreqGHz: 39, SCSkHz: 120,
		CCWidthMHz: 100, PeakDLMbpsPerCC: 550, PeakULMbpsPerCC: 110,
		CoverageKm: 0.35, AirRTTMs: 3.0,
		EdgeRSRPDbm: -110, PeakRSRPDbm: -70,
		PathLossExp: 2.2, TxRefDbm: -28, NLoSPenaltyDb: 25,
	}
	// BandN261 is 28 GHz mmWave.
	BandN261 = Band{
		Name: "n261", Class: ClassMmWave, FreqGHz: 28, SCSkHz: 120,
		CCWidthMHz: 100, PeakDLMbpsPerCC: 550, PeakULMbpsPerCC: 110,
		CoverageKm: 0.40, AirRTTMs: 3.0,
		EdgeRSRPDbm: -110, PeakRSRPDbm: -70,
		PathLossExp: 2.1, TxRefDbm: -26, NLoSPenaltyDb: 25,
	}
)

// LoSRSRPRefDbm is the deterministic part of RSRPAt: the line-of-sight
// received power at distKm before the shadowing term, the NLoS penalty, and
// the -140 dBm floor. RSRPAt(d, true, s) computes exactly
// clamp(LoSRSRPRefDbm(d) + s): the path-loss subtraction happens before the
// shadow addition (Go's + is left-associative), which is what lets callers
// cache this base per position and add a time-varying shadow later with
// bit-identical results.
func (b Band) LoSRSRPRefDbm(distKm float64) float64 {
	// Antennas are mounted on poles/rooftops, so the UE never gets closer
	// than a few tens of meters of 3-D distance even when directly under
	// the site.
	const minDistKm = 0.035
	if distKm < minDistKm {
		distKm = minDistKm
	}
	distM := distKm * 1000
	pl := 10 * b.PathLossExp * math.Log10(distM)
	return b.TxRefDbm - pl
}

// RSRPAt returns the reference signal received power (dBm) at distance
// distKm from the serving sector, optionally without line of sight, plus a
// shadowing term (dB, signed) supplied by the caller's random process.
// The result is clamped to a physical floor of -140 dBm.
func (b Band) RSRPAt(distKm float64, los bool, shadowDb float64) float64 {
	rsrp := b.LoSRSRPRefDbm(distKm) + shadowDb
	if !los {
		rsrp -= b.NLoSPenaltyDb
	}
	if rsrp < -140 {
		rsrp = -140
	}
	return rsrp
}

// SignalQuality maps RSRP (dBm) to a capacity fraction in [0,1]: 0 at or
// below the band's edge RSRP, 1 at or above its peak RSRP. The mapping is a
// truncated-Shannon shape: close to linear in dB across the usable range,
// saturating at both ends, which matches measured NR link adaptation.
func (b Band) SignalQuality(rsrpDbm float64) float64 {
	if rsrpDbm <= b.EdgeRSRPDbm {
		return 0
	}
	if rsrpDbm >= b.PeakRSRPDbm {
		return 1
	}
	x := (rsrpDbm - b.EdgeRSRPDbm) / (b.PeakRSRPDbm - b.EdgeRSRPDbm)
	// Smooth-step: keeps the mid-range roughly linear while flattening the
	// approach to the edges, as link adaptation does around its MCS limits.
	return x * x * (3 - 2*x)
}

// Direction distinguishes downlink from uplink transfers.
type Direction int

const (
	// Downlink is network-to-UE transfer.
	Downlink Direction = iota
	// Uplink is UE-to-network transfer.
	Uplink
)

func (d Direction) String() string {
	if d == Uplink {
		return "UL"
	}
	return "DL"
}

// LinkCapacityMbps returns the achievable PHY-layer rate for the band given
// the number of aggregated component carriers and the current RSRP.
func (b Band) LinkCapacityMbps(dir Direction, ccs int, rsrpDbm float64) float64 {
	if ccs < 1 {
		ccs = 1
	}
	per := b.PeakDLMbpsPerCC
	if dir == Uplink {
		per = b.PeakULMbpsPerCC
	}
	return per * float64(ccs) * b.SignalQuality(rsrpDbm)
}

// Network is one carrier's deployment of a band in a given mode: the unit at
// which the paper reports results (e.g. "Verizon NSA mmWave", "T-Mobile SA
// low-band").
type Network struct {
	Carrier Carrier
	Mode    Mode
	Band    Band
	// CapacityScale derates the band's nominal capacity for
	// deployment-specific reasons: DSS sharing with LTE on Verizon n5, and
	// the immature SA core on T-Mobile n71 ("half the performance of
	// NSA", §3.2).
	CapacityScale float64
}

// String renders e.g. "Verizon NSA mmWave (n261)" or "T-Mobile 4G/LTE".
func (n Network) String() string {
	if n.Mode == ModeLTE {
		return fmt.Sprintf("%s 4G/LTE", n.Carrier)
	}
	return fmt.Sprintf("%s %s %s (%s)", n.Carrier, n.Mode, n.Band.Class, n.Band.Name)
}

// Key returns a compact unique identifier, e.g. "VZ/NSA/n260".
func (n Network) Key() string {
	c := "VZ"
	if n.Carrier == TMobile {
		c = "TM"
	}
	return fmt.Sprintf("%s/%s/%s", c, n.Mode, n.Band.Name)
}

// EffectiveCapacityMbps is LinkCapacityMbps scaled by the deployment's
// CapacityScale.
func (n Network) EffectiveCapacityMbps(dir Direction, ccs int, rsrpDbm float64) float64 {
	s := n.CapacityScale
	if s == 0 {
		s = 1
	}
	return n.Band.LinkCapacityMbps(dir, ccs, rsrpDbm) * s
}

// The deployments measured in the paper.
var (
	// VerizonLTE is Verizon's 4G service.
	VerizonLTE = Network{Carrier: Verizon, Mode: ModeLTE, Band: BandLTE, CapacityScale: 1}
	// VerizonNSALowBand is Verizon low-band 5G on n5 via DSS; spectrum is
	// shared with LTE, halving effective capacity.
	VerizonNSALowBand = Network{Carrier: Verizon, Mode: ModeNSA, Band: BandN5, CapacityScale: 0.5}
	// VerizonNSAmmWave is Verizon's NSA mmWave service (n260/n261).
	VerizonNSAmmWave = Network{Carrier: Verizon, Mode: ModeNSA, Band: BandN261, CapacityScale: 1}
	// TMobileLTE is T-Mobile's 4G service.
	TMobileLTE = Network{Carrier: TMobile, Mode: ModeLTE, Band: BandLTE, CapacityScale: 1}
	// TMobileNSALowBand is T-Mobile NSA 5G on n71.
	TMobileNSALowBand = Network{Carrier: TMobile, Mode: ModeNSA, Band: BandN71, CapacityScale: 1}
	// TMobileSALowBand is T-Mobile SA 5G on n71. Carrier aggregation is not
	// yet supported on SA and the young 5G core underdelivers, so both
	// downlink and uplink reach about half of NSA's rates (§3.2).
	TMobileSALowBand = Network{Carrier: TMobile, Mode: ModeSA, Band: BandN71, CapacityScale: 0.5}
)

// AllNetworks lists every deployment the study measures, in the order used
// by the paper's tables.
var AllNetworks = []Network{
	TMobileSALowBand,
	TMobileNSALowBand,
	VerizonNSAmmWave,
	VerizonNSALowBand,
	TMobileLTE,
	VerizonLTE,
}
