// Package power models smartphone radio power consumption for 4G and 5G
// data transfer, reproducing §4 of the paper.
//
// The core finding encoded here (Fig. 11, Table 8): for every device and
// band, power rises linearly with throughput, but the *slope* of the mmWave
// lines is an order of magnitude shallower than 4G/low-band while their
// *intercept* (zero-throughput connected power) is far higher. That geometry
// produces the crossover points — mmWave 5G is less energy-efficient than 4G
// at low rates and up to 5x more efficient at high rates (Fig. 12).
//
// Beyond the per-(device, band, direction) linear curves, the package
// provides the composed device-level power (screen + SoC + radio), the
// signal-strength-aware ground-truth process used to synthesise the walking
// datasets (Fig. 13/14), and energy integration over throughput traces.
package power

import (
	"fmt"
	"math"

	"fivegsim/internal/device"
	"fivegsim/internal/radio"
)

// Curve is a linear throughput -> radio power relationship for one
// (device, band class, direction): P(mW) = BaseMw + SlopeMwPerMbps * Mbps.
type Curve struct {
	// SlopeMwPerMbps is the marginal power per Mbps (Table 8).
	SlopeMwPerMbps float64
	// BaseMw is the radio power of an active (continuous-reception)
	// connection at zero throughput.
	BaseMw float64
}

// PowerMw evaluates the curve at a throughput.
func (c Curve) PowerMw(mbps float64) float64 {
	if mbps < 0 {
		mbps = 0
	}
	return c.BaseMw + c.SlopeMwPerMbps*mbps
}

// EfficiencyUJPerBit returns the energy per bit in microjoules when
// transferring at the given rate: P(W)/T(Mbps) = J/Mbit = uJ/bit.
// It returns +Inf at zero throughput.
func (c Curve) EfficiencyUJPerBit(mbps float64) float64 {
	if mbps <= 0 {
		return math.Inf(1)
	}
	return c.PowerMw(mbps) / 1000 / mbps
}

// Crossover returns the throughput at which curves a and b draw equal power.
// ok is false when the lines are parallel or the crossing is at a negative
// rate.
func Crossover(a, b Curve) (mbps float64, ok bool) {
	ds := a.SlopeMwPerMbps - b.SlopeMwPerMbps
	if ds == 0 {
		return 0, false
	}
	x := (b.BaseMw - a.BaseMw) / ds
	if x < 0 {
		return 0, false
	}
	return x, true
}

// curveKey identifies one measured line.
type curveKey struct {
	model device.Model
	class radio.BandClass
	dir   radio.Direction
}

// The measured curves. Slopes come from Table 8 of the paper; intercepts are
// calibrated so the crossover points land where Fig. 11 (S20U) and Fig. 26
// (S10) put them:
//
//	S20U DL: mmWave x 4G at 186.97 Mbps, mmWave x LB at 188.78 Mbps
//	S20U UL: mmWave x 4G at 39.92 Mbps,  mmWave x LB at 122.71 Mbps
//	S10  DL: mmWave x 4G at 213 Mbps;    S10 UL: 44 Mbps
//
// The PX5 is not in Table 8; its curves are modelled close to the S10's
// (both are 4CC modems of the same generation) and are used by the web-
// browsing energy estimates, which the paper also derives from "our power
// model".
var curves = map[curveKey]Curve{
	// Samsung Galaxy S20 Ultra 5G (Verizon mmWave + low-band, Minneapolis).
	{device.S20U, radio.ClassLTE, radio.Downlink}:     {14.55, 800.0},
	{device.S20U, radio.ClassLTE, radio.Uplink}:       {80.21, 800.0},
	{device.S20U, radio.ClassLowBand, radio.Downlink}: {13.52, 969.2},
	{device.S20U, radio.ClassLowBand, radio.Uplink}:   {29.15, 1204.8},
	{device.S20U, radio.ClassMmWave, radio.Downlink}:  {1.81, 3182.4},
	{device.S20U, radio.ClassMmWave, radio.Uplink}:    {9.42, 3625.9},

	// Samsung Galaxy S10 5G (Verizon mmWave, Ann Arbor).
	{device.S10, radio.ClassLTE, radio.Downlink}:     {13.38, 700.0},
	{device.S10, radio.ClassLTE, radio.Uplink}:       {57.99, 700.0},
	{device.S10, radio.ClassLowBand, radio.Downlink}: {13.60, 940.0},
	{device.S10, radio.ClassLowBand, radio.Uplink}:   {30.00, 1180.0},
	{device.S10, radio.ClassMmWave, radio.Downlink}:  {2.06, 3111.2},
	{device.S10, radio.ClassMmWave, radio.Uplink}:    {5.27, 3019.7},

	// Google Pixel 5 (modelled; X52 modem, used for web experiments).
	{device.PX5, radio.ClassLTE, radio.Downlink}:     {14.00, 750.0},
	{device.PX5, radio.ClassLTE, radio.Uplink}:       {62.00, 750.0},
	{device.PX5, radio.ClassLowBand, radio.Downlink}: {13.60, 950.0},
	{device.PX5, radio.ClassLowBand, radio.Uplink}:   {30.00, 1150.0},
	{device.PX5, radio.ClassMmWave, radio.Downlink}:  {2.00, 3050.0},
	{device.PX5, radio.ClassMmWave, radio.Uplink}:    {6.00, 3100.0},
}

// CurveFor returns the measured throughput-power line for a device on a band
// class and direction. Mid-band falls back to the low-band curve (the paper
// did not measure n41).
func CurveFor(m device.Model, class radio.BandClass, dir radio.Direction) (Curve, error) {
	if class == radio.ClassMidBand {
		class = radio.ClassLowBand
	}
	c, ok := curves[curveKey{m, class, dir}]
	if !ok {
		return Curve{}, fmt.Errorf("power: no curve for %s %s %s", m.Short(), class, dir)
	}
	return c, nil
}

// MustCurve is CurveFor but panics on unknown combinations; for experiment
// setup code where the combination is static.
func MustCurve(m device.Model, class radio.BandClass, dir radio.Direction) Curve {
	c, err := CurveFor(m, class, dir)
	if err != nil {
		panic(err)
	}
	return c
}

// Device-level constant components, calibrated so that an idle phone with
// the screen at maximum brightness draws ~2014 mW (Table 3).
const (
	// ScreenMaxMw is the display at maximum brightness (the experimental
	// setting; §4.1 subtracts it when reporting radio power).
	ScreenMaxMw = 1100.0
	// SoCBaseMw is the SoC + rest-of-system floor with the screen on.
	SoCBaseMw = 900.0
)

// Activity describes the instantaneous radio workload of the UE.
type Activity struct {
	Class  radio.BandClass
	DLMbps float64
	ULMbps float64
	// RSRPDbm is the serving-cell signal strength. Zero means "unknown /
	// perfect": no signal-strength penalty is applied.
	RSRPDbm float64
}

// classRange returns the representative (edge, peak) RSRP for a band class,
// used to normalise signal quality in the power process.
func classRange(c radio.BandClass) (edge, peak float64) {
	switch c {
	case radio.ClassMmWave:
		return radio.BandN261.EdgeRSRPDbm, radio.BandN261.PeakRSRPDbm
	case radio.ClassLowBand, radio.ClassMidBand:
		return radio.BandN71.EdgeRSRPDbm, radio.BandN71.PeakRSRPDbm
	default:
		return radio.BandLTE.EdgeRSRPDbm, radio.BandLTE.PeakRSRPDbm
	}
}

// Poorness maps RSRP to [0,1]: 0 at/above the class's peak RSRP (perfect
// signal), 1 at/below its edge.
func Poorness(class radio.BandClass, rsrpDbm float64) float64 {
	if rsrpDbm == 0 {
		return 0
	}
	edge, peak := classRange(class)
	p := (peak - rsrpDbm) / (peak - edge)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Signal-strength sensitivity of the ground-truth power process. Poor signal
// raises both the connection-maintenance power (more frequent measurements,
// higher-gain reception) and the marginal per-bit power (retransmissions,
// uplink power control). These are the nonlinearities that make a linear
// TH-only model underfit the walking dataset (§4.5).
const (
	baseSignalGain  = 0.35 // base power inflation at worst signal (quadratic)
	slopeSignalGain = 0.45 // marginal power inflation at worst signal (linear)
)

// RadioPowerMw returns the ground-truth radio power for an activity on the
// given device: the linear throughput terms, inflated by signal quality.
// This is the process the hardware power monitor observes (§4.4); the
// paper's fitted models approximate it.
func RadioPowerMw(m device.Model, a Activity) (float64, error) {
	dl, err := CurveFor(m, a.Class, radio.Downlink)
	if err != nil {
		return 0, err
	}
	ul, err := CurveFor(m, a.Class, radio.Uplink)
	if err != nil {
		return 0, err
	}
	poor := Poorness(a.Class, a.RSRPDbm)
	base := dl.BaseMw
	if a.ULMbps > a.DLMbps {
		base = ul.BaseMw
	}
	base *= 1 + baseSignalGain*poor*poor
	marg := (dl.SlopeMwPerMbps*math.Max(0, a.DLMbps) +
		ul.SlopeMwPerMbps*math.Max(0, a.ULMbps)) * (1 + slopeSignalGain*poor)
	return base + marg, nil
}

// DLPower is RadioPowerMw flattened for a downlink-only hot loop: the two
// map-backed curve lookups, the class signal range, and the error path are
// resolved once at construction, so each PowerMw call is a handful of
// multiplies with no map access and no error to check. For activities with
// ULMbps == 0 and DLMbps >= 0, PowerMw(dl, rsrp) is bit-identical to
// RadioPowerMw: the uplink term contributes ul.Slope*max(0, 0) == +0, and
// a + (+0) == a for every value the downlink term can take (slopes are
// positive, so it is never -0). A negative DLMbps would flip RadioPowerMw
// onto the uplink base power (ULMbps > DLMbps); DLPower does not model that
// corner, which no downlink transfer can reach.
type DLPower struct {
	// BaseMw and SlopeMwPerMbps are the downlink curve (see Curve).
	BaseMw         float64
	SlopeMwPerMbps float64

	// peakDbm and rangeDb are the class's representative RSRP range
	// (classRange): rangeDb is peak-edge, precomputed with the same
	// subtraction Poorness performs, so the division rounds identically.
	peakDbm float64
	rangeDb float64
}

// DLPowerFor resolves the flattened downlink power process for a device on
// a band class. It validates both directions' curves (exactly the lookups
// RadioPowerMw performs), so a nil error here guarantees RadioPowerMw can
// never fail for this (device, class) at any throughput.
func DLPowerFor(m device.Model, class radio.BandClass) (DLPower, error) {
	dl, err := CurveFor(m, class, radio.Downlink)
	if err != nil {
		return DLPower{}, err
	}
	if _, err := CurveFor(m, class, radio.Uplink); err != nil {
		return DLPower{}, err
	}
	edge, peak := classRange(class)
	return DLPower{
		BaseMw:         dl.BaseMw,
		SlopeMwPerMbps: dl.SlopeMwPerMbps,
		peakDbm:        peak,
		rangeDb:        peak - edge,
	}, nil
}

// PowerMw is RadioPowerMw for Activity{Class: class, DLMbps: dlMbps,
// RSRPDbm: rsrpDbm}: the downlink linear term inflated by signal poorness.
func (p DLPower) PowerMw(dlMbps, rsrpDbm float64) float64 {
	poor := 0.0
	if rsrpDbm != 0 {
		poor = (p.peakDbm - rsrpDbm) / p.rangeDb
		if poor < 0 {
			poor = 0
		}
		if poor > 1 {
			poor = 1
		}
	}
	base := p.BaseMw * (1 + baseSignalGain*poor*poor)
	marg := p.SlopeMwPerMbps * math.Max(0, dlMbps) * (1 + slopeSignalGain*poor)
	return base + marg
}

// DevicePowerMw is the full instantaneous device power: screen at max
// brightness + SoC floor + radio. This is what the Monsoon monitor measures
// before screen subtraction.
func DevicePowerMw(m device.Model, a Activity) (float64, error) {
	r, err := RadioPowerMw(m, a)
	if err != nil {
		return 0, err
	}
	return ScreenMaxMw + SoCBaseMw + r, nil
}

// EfficiencyUJPerBit computes energy-per-bit for an activity (both
// directions summed), in microjoules per bit.
func EfficiencyUJPerBit(m device.Model, a Activity) (float64, error) {
	th := a.DLMbps + a.ULMbps
	if th <= 0 {
		return math.Inf(1), nil
	}
	p, err := RadioPowerMw(m, a)
	if err != nil {
		return 0, err
	}
	return p / 1000 / th, nil
}
