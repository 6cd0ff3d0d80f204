package fleet

import (
	"fmt"

	"fivegsim/internal/cell"
	"fivegsim/internal/device"
	"fivegsim/internal/power"
	"fivegsim/internal/radio"
	"fivegsim/internal/rrc"
)

// Mix selects the tower deployment a campaign simulates: which radio layers
// blanket the city route. The three mixes bracket the paper's operator
// strategies — T-Mobile's low-band coverage play, Verizon's mmWave capacity
// play, and the realistic hybrid (mmWave hotspots downtown over a low-band
// blanket).
type Mix int

const (
	// MixLowBand is an NSA low-band (n71) blanket over an LTE anchor.
	MixLowBand Mix = iota
	// MixMmWave is NSA mmWave (n261) small cells over an LTE anchor;
	// coverage holes between cells fall back to 4G, as measured.
	MixMmWave
	// MixMixed is mmWave hotspots over the downtown third of the route,
	// a low-band blanket everywhere, and the LTE anchor underneath.
	MixMixed
)

// AllMixes lists the deployments in table order.
var AllMixes = []Mix{MixLowBand, MixMmWave, MixMixed}

func (m Mix) String() string {
	switch m {
	case MixLowBand:
		return "low-band"
	case MixMmWave:
		return "mmwave"
	case MixMixed:
		return "mixed"
	default:
		return fmt.Sprintf("Mix(%d)", int(m))
	}
}

// MixByName parses a mix name as used by the fgfleet -mix flag.
func MixByName(s string) (Mix, error) {
	for _, m := range AllMixes {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("fleet: unknown mix %q (try low-band, mmwave, mixed)", s)
}

// layer is one radio layer of a deployment: a network's sites along the
// route plus the per-layer link parameters the session model needs. The
// lower block is the flattened chunk-kernel state: every per-chunk lookup
// or re-derivable constant the hot path used to compute per call, resolved
// once in newLayer so serving a chunk is adds and multiplies only. Each
// flattened value is produced by the exact float expression the unflattened
// path evaluates, so results are bit-identical (see DESIGN.md).
type layer struct {
	net    radio.Network
	layout cell.Layout
	ccs    int     // S20U carrier-aggregation level on this layer
	rttS   float64 // air RTT + core network RTT
	lossEv float64 // radio loss-episode rate (events/s at full utilization)
	mmWave bool    // subject to blockage (NLoS) state
	nr     bool    // counts toward the 5G chunk share

	edgeDbm   float64       // band edge RSRP: at or below it, not attached
	peakDbm   float64       // band peak RSRP: full rate at or above it
	sigRange  float64       // peakDbm - edgeDbm (SignalQuality denominator)
	capFactor float64       // PeakDLMbpsPerCC * ccs (ccs clamped to >= 1)
	capScale  float64       // deployment CapacityScale (0 means 1)
	dlPower   power.DLPower // flattened S20U downlink power process
}

// capMbps is EffectiveCapacityMbps(Downlink, l.ccs, rsrpDbm) over the
// flattened constants: the smooth-step SignalQuality inlined between the
// precomputed bounds, times the precomputed peak-rate and derating factors,
// in the same multiplication order.
func (l *layer) capMbps(rsrpDbm float64) float64 {
	var sq float64
	switch {
	case rsrpDbm <= l.edgeDbm:
		sq = 0
	case rsrpDbm >= l.peakDbm:
		sq = 1
	default:
		x := (rsrpDbm - l.edgeDbm) / l.sigRange
		sq = x * x * (3 - 2*x)
	}
	return l.capFactor * sq * l.capScale
}

// deployment is the read-only world shared by every shard of a campaign:
// tower layouts per layer in preference order, the primary deployment's RRC
// parameters, and the ABR ladder. It is built once in Run and only read
// from shard goroutines. The lower block holds the control-plane and tail
// constants the chunk kernel used to re-derive from prim on every event,
// hoisted by the same float expressions so event times and energy terms
// are bit-identical.
type deployment struct {
	mix    Mix
	layers []layer // preference order: best technology first, LTE last
	prim   rrc.Config
	ladder []float64 // track bitrates, Mbps, ascending
	hasMm  bool

	promoS      float64 // RRC promotion delay, s (SA: 5G; NSA/LTE: 4G anchor)
	switchW     float64 // promotion-phase power, W (SwitchPowerMw or tail)
	tailW       float64 // connected-tail power, W
	longDRXs    float64 // long-DRX cycle, s
	tailS       float64 // connected-tail duration, s
	tailJ       float64 // energy of the full connected tail, J
	cascadeS    float64 // post-tail cascade duration, s (0 when none)
	hasCascade  bool    // NSA LTE tail or SA RRC_INACTIVE dwell follows
	cascadeJ    float64 // energy of the cascade phase, J
	outageRSRP  float64 // last layer's edge RSRP (detached fallback)
	outageLayer *layer  // last (LTE) layer, the detached fallback
}

// coreRTTS is the core-network + server contribution to the RTT, on top of
// each band's air interface latency.
const coreRTTS = 0.015

// Radio loss-episode rates by layer kind (events/second at full pipe
// utilization): beam switches and blockage on mmWave, handovers on the
// blanket layers. Mirrors the PathParams.LossEventRate scale used by the
// transport experiments.
const (
	lossEvMmWave  = 0.25
	lossEvLowBand = 0.05
	lossEvLTE     = 0.03
)

// ladderTracks is the bitrate ladder depth; adjacent tracks are spaced by
// ladderStep (the 1.5x spacing of the ABR experiments).
const (
	ladderTracks = 6
	ladderStep   = 1.5
)

func newLayer(net radio.Network, layout cell.Layout, lossEv float64) (layer, error) {
	spec := device.Specs[device.S20U]
	class := net.Band.Class
	dlp, err := power.DLPowerFor(device.S20U, class)
	if err != nil {
		return layer{}, fmt.Errorf("fleet: layer %s: %w", net, err)
	}
	l := layer{
		net:     net,
		layout:  layout,
		ccs:     spec.CCFor(class, radio.Downlink),
		rttS:    net.Band.AirRTTMs/1000 + coreRTTS,
		lossEv:  lossEv,
		mmWave:  class == radio.ClassMmWave,
		nr:      net.Mode != radio.ModeLTE,
		edgeDbm: net.Band.EdgeRSRPDbm,
		peakDbm: net.Band.PeakRSRPDbm,
		dlPower: dlp,
	}
	l.sigRange = l.peakDbm - l.edgeDbm
	ccs := l.ccs
	if ccs < 1 {
		ccs = 1
	}
	l.capFactor = net.Band.PeakDLMbpsPerCC * float64(ccs)
	l.capScale = net.CapacityScale
	if l.capScale == 0 {
		l.capScale = 1
	}
	return l, nil
}

// routeKm is the city route length; UEs start uniformly along it.
const routeKm = 12.0

// chunkS is the video chunk length, s. A session fetches
// ceil(SessionS/chunkS) chunks, which Validate keeps inside int32.
const chunkS = 4.0

// newDeployment builds the shared world for a mix along the route. Errors
// (an unknown mix, a band class with no measured power curve) surface here,
// at campaign construction, so Run fails before any shard starts instead
// of a shard panicking mid-campaign.
func newDeployment(mix Mix) (*deployment, error) {
	d := &deployment{mix: mix}
	type layerSpec struct {
		net    radio.Network
		layout cell.Layout
		lossEv float64
	}
	var specs []layerSpec
	topMbps := 160.0 // the mmWave-capable ladder of the ABR experiments
	switch mix {
	case MixLowBand:
		topMbps = 55
		specs = []layerSpec{
			{radio.TMobileNSALowBand,
				cell.LinearLayout(radio.TMobileNSALowBand, routeKm, 2.2, 0.4), lossEvLowBand},
			{radio.TMobileLTE,
				cell.LinearLayout(radio.TMobileLTE, routeKm, 0.5, 0.25), lossEvLTE},
		}
		d.prim = rrc.MustConfig(radio.TMobileNSALowBand)
	case MixMmWave:
		specs = []layerSpec{
			{radio.VerizonNSAmmWave,
				cell.LinearLayout(radio.VerizonNSAmmWave, routeKm, 0.45, 0.1), lossEvMmWave},
			{radio.VerizonLTE,
				cell.LinearLayout(radio.VerizonLTE, routeKm, 0.5, 0.25), lossEvLTE},
		}
		d.prim = rrc.MustConfig(radio.VerizonNSAmmWave)
	case MixMixed:
		// mmWave hotspots cover only the downtown third of the route;
		// the low-band blanket and the LTE anchor run end to end.
		specs = []layerSpec{
			{radio.VerizonNSAmmWave,
				cell.LinearLayout(radio.VerizonNSAmmWave, routeKm/3, 0.45, 0.1), lossEvMmWave},
			{radio.TMobileNSALowBand,
				cell.LinearLayout(radio.TMobileNSALowBand, routeKm, 2.2, 0.4), lossEvLowBand},
			{radio.TMobileLTE,
				cell.LinearLayout(radio.TMobileLTE, routeKm, 0.5, 0.25), lossEvLTE},
		}
		d.prim = rrc.MustConfig(radio.TMobileNSALowBand)
	default:
		return nil, fmt.Errorf("fleet: unknown mix %v", mix)
	}
	for _, sp := range specs {
		l, err := newLayer(sp.net, sp.layout, sp.lossEv)
		if err != nil {
			return nil, err
		}
		d.layers = append(d.layers, l)
	}
	for _, la := range d.layers {
		if la.mmWave {
			d.hasMm = true
		}
	}
	d.ladder = make([]float64, ladderTracks)
	rate := topMbps
	for i := ladderTracks - 1; i >= 0; i-- {
		d.ladder[i] = rate
		rate /= ladderStep
	}
	d.hoistConfig()
	return d, nil
}

// hoistConfig precomputes every prim-derived constant the chunk kernel
// used to evaluate per event, using the exact float expressions of the
// unflattened code so event times and energy increments stay bit-identical.
func (d *deployment) hoistConfig() {
	cfg := &d.prim
	promo := cfg.Promo4GMs
	if cfg.Network.Mode == radio.ModeSA {
		promo = cfg.Promo5GMs
	}
	d.promoS = promo / 1000
	sw := cfg.SwitchPowerMw
	if sw == 0 {
		sw = cfg.TailPowerMw
	}
	d.switchW = sw / 1000
	d.tailW = cfg.TailPowerMw / 1000
	d.longDRXs = cfg.LongDRXMs / 1000
	d.tailS = cfg.TailMs / 1000
	d.tailJ = cfg.TailPowerMw / 1000 * cfg.TailMs / 1000
	switch {
	case cfg.LTETailMs > cfg.TailMs:
		d.hasCascade = true
		d.cascadeS = (cfg.LTETailMs - cfg.TailMs) / 1000
		d.cascadeJ = cfg.TailPowerMw / 1000 * (cfg.LTETailMs - cfg.TailMs) / 1000
	case cfg.InactiveDwellMs > 0:
		d.hasCascade = true
		d.cascadeS = cfg.InactiveDwellMs / 1000
		d.cascadeJ = cfg.InactivePowerMw / 1000 * cfg.InactiveDwellMs / 1000
	}
	last := &d.layers[len(d.layers)-1]
	d.outageLayer = last
	d.outageRSRP = last.net.Band.EdgeRSRPDbm
}

// outageFloorMbps is the rate a UE limps along at when no layer is usable
// (deep shadow between mmWave cells with the fallback also faded): the
// link is effectively down but the model keeps making progress.
const outageFloorMbps = 0.3

// serve picks the serving layer at a route position: the first layer in
// preference order whose cell can sustain at least the bottom ladder track
// in real time (a UE at the ragged edge of a mmWave hotspot must not be
// "preferred" onto a link that cannot stream — it camps on the blanket
// layer instead, the measured NSA fallback behaviour). mmWave layers are
// skipped while the UE's line of sight is blocked. If no layer clears the
// streaming bar, the best-capacity attached layer serves; if nothing is
// attached at all, the UE limps on the last (LTE) layer at the outage
// floor.
//
// serve is the reference implementation, scanning every site of every
// layer per call. The chunk kernel runs serveCached instead, which replays
// the same floats from the admission-time base-RSRP cache;
// TestServeCachedMatchesServe holds them bit-identical.
func (d *deployment) serve(km, shadowDb float64, blocked bool) (la *layer, rsrp, capMbps float64) {
	minServe := d.ladder[0]
	bestLi, bestCap, bestRSRP := -1, 0.0, 0.0
	for li := range d.layers {
		l := &d.layers[li]
		if l.mmWave && blocked {
			continue
		}
		_, r, ok := l.layout.Best(km, shadowDb, true)
		if !ok {
			continue
		}
		c := l.net.EffectiveCapacityMbps(radio.Downlink, l.ccs, r)
		if c >= minServe {
			return l, r, c
		}
		if c > bestCap {
			bestLi, bestCap, bestRSRP = li, c, r
		}
	}
	if bestLi >= 0 {
		return &d.layers[bestLi], bestRSRP, bestCap
	}
	l := &d.layers[len(d.layers)-1]
	return l, l.net.Band.EdgeRSRPDbm, outageFloorMbps
}

// baseRSRP fills base[li] with each layer's admission-time radio cache:
// the shadow-free best base RSRP at route position km (see
// cell.Layout.BestBaseRSRP). base must have len(d.layers) elements.
func (d *deployment) baseRSRP(km float64, base []float64) {
	for li := range d.layers {
		base[li] = d.layers[li].layout.BestBaseRSRP(km)
	}
}

// serveCached is serve over the admission-time cache: per layer, the
// O(sites) shadowed scan collapses to one add and one clamp over the
// cached base, because the shadow offsets all of a layer's sites equally
// (the argmax site is shadow-invariant) and serve never uses the winning
// Site, only its RSRP value. The capacity ladder and fallback selection
// are unchanged; every float it returns is bit-identical to serve's.
func (d *deployment) serveCached(base []float64, shadowDb float64, blocked bool) (la *layer, rsrp, capMbps float64) {
	minServe := d.ladder[0]
	bestLi, bestCap, bestRSRP := -1, 0.0, 0.0
	for li := range d.layers {
		l := &d.layers[li]
		if l.mmWave && blocked {
			continue
		}
		r := base[li] + shadowDb
		if r < -140 {
			r = -140
		}
		if r <= l.edgeDbm {
			continue // Best's !ok: no usable cell on this layer
		}
		c := l.capMbps(r)
		if c >= minServe {
			return l, r, c
		}
		if c > bestCap {
			bestLi, bestCap, bestRSRP = li, c, r
		}
	}
	if bestLi >= 0 {
		return &d.layers[bestLi], bestRSRP, bestCap
	}
	return d.outageLayer, d.outageRSRP, outageFloorMbps
}
