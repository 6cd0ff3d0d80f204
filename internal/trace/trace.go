// Package trace synthesises network throughput traces with the statistical
// character of the Lumos5G dataset the paper's ABR experiments replay (§5.1:
// 121 mmWave-5G and 175 4G traces at 1-second granularity), plus the walking
// measurement traces (throughput + RSRP) behind the power analyses of §4.4.
//
// The mmWave traces are regime-switching: line-of-sight stretches deliver
// hundreds of Mbps, partial obstruction degrades the link, and blockage
// events crater it — producing the high variance and abrupt dips that break
// 4G-era ABR algorithms. The 4G traces are comparatively smooth AR(1)
// processes. The generators are calibrated so that the 5G mean is roughly
// 10x the 4G mean and the medians sit near the paper's top-track bitrates
// (160 Mbps for 5G, 20 Mbps for 4G).
package trace

import (
	"math/rand"

	"fivegsim/internal/cell"
	"fivegsim/internal/radio"
)

// Lumos5G-scale dataset sizes.
const (
	NumTraces5G = 121
	NumTraces4G = 175
)

// mmWave regime parameters.
type regime struct {
	meanMbps, sdMbps float64
}

var (
	mmRegimes = []regime{
		{450, 160}, // clear line of sight
		{170, 55},  // partially obstructed / far from panel
		{18, 13},   // blocked (body, building, foliage)
	}
	// mmTrans[i][j]: per-second probability of moving regime i -> j.
	mmTrans = [3][3]float64{
		{0.900, 0.080, 0.020},
		{0.045, 0.900, 0.055},
		{0.020, 0.090, 0.890},
	}
)

// Gen5GmmWave generates one mmWave 5G throughput trace of durS seconds at
// 1-second granularity. Regime changes are not instantaneous: the link
// ramps toward the new regime's level over a couple of seconds (walking
// toward or away from an obstruction attenuates gradually), which is what
// makes short-horizon mmWave throughput learnable from recent history
// (Lumos5G's premise) while still surprising long-window estimators.
func Gen5GmmWave(seed int64, durS int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, durS)
	state := 1 // start partially obstructed (typical walking condition)
	level := mmRegimes[state].meanMbps
	const approach = 0.55 // per-second fraction of the gap closed
	for t := 0; t < durS; t++ {
		u := rng.Float64()
		acc := 0.0
		for j, p := range mmTrans[state] {
			acc += p
			if u < acc {
				state = j
				break
			}
		}
		r := mmRegimes[state]
		level += approach * (r.meanMbps - level)
		v := level + rng.NormFloat64()*r.sdMbps*0.55
		if v < 0.5 {
			v = 0.5
		}
		out[t] = v
	}
	return out
}

// Gen4G generates one 4G/LTE throughput trace: a mean-reverting AR(1)
// process around ~27 Mbps, far smoother than mmWave.
func Gen4G(seed int64, durS int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, durS)
	const (
		mean = 27.0
		rho  = 0.9
		sd   = 6.0
	)
	x := mean + rng.NormFloat64()*sd
	var bout []float64 // remaining attenuation profile of a congestion bout
	for t := 0; t < durS; t++ {
		x = mean + rho*(x-mean) + rng.NormFloat64()*sd*0.45
		// Cellular 4G occasionally hits congestion bouts (cell load, brief
		// handovers) that throttle throughput. Load builds and releases
		// over a few seconds, so the bout has a ramped profile rather
		// than a cliff.
		if len(bout) == 0 && rng.Float64() < 0.010 {
			bout = []float64{0.75, 0.55}
			for k := 0; k < 3+rng.Intn(6); k++ {
				bout = append(bout, 0.45)
			}
			bout = append(bout, 0.7)
		}
		v := x
		if len(bout) > 0 {
			v = x * bout[0]
			bout = bout[1:]
		}
		if v < 1 {
			v = 1
		}
		out[t] = v
	}
	return out
}

// GenSet5G generates n mmWave traces (pass NumTraces5G for the paper-scale
// set).
func GenSet5G(n, durS int, seed int64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = Gen5GmmWave(seed+int64(i)*SeedStride5G, durS)
	}
	return out
}

// GenSet4G generates n 4G traces.
func GenSet4G(n, durS int, seed int64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = Gen4G(seed+int64(i)*SeedStride4G, durS)
	}
	return out
}

// WalkSample is one second of a walking measurement trace: the §4.4
// methodology logs network throughput at 10 Hz and signal strength while
// walking a fixed loop; we aggregate to 1 Hz.
type WalkSample struct {
	TSec    int
	DLMbps  float64
	RSRPDbm float64
}

// Walking loop geometry (§4.1): a 20-minute, ~1.6 km loop passing three
// mmWave towers, each with three directional transceivers; low-band
// coverage is omnipresent.
const (
	WalkLoopKm   = 1.6
	WalkSpeedKmS = 1.33 / 1000 // 1.33 m/s
)

// WalkMmWave generates a walking trace on Verizon NSA mmWave: RSRP follows
// the tower geometry with shadowing and body-blockage episodes; throughput
// is the signal-dependent link capacity damped by a utilisation factor
// (the device saturates the link during the measurement walks).
func WalkMmWave(seed int64, durS int) []WalkSample {
	rng := rand.New(rand.NewSource(seed))
	net := radio.VerizonNSAmmWave
	layout := cell.Layout{Net: net}
	for i, km := range []float64{0.22, 0.76, 1.31} {
		layout.Sites = append(layout.Sites, cell.Site{ID: i, Km: km, Net: net})
	}
	fade := cell.NewFading(seed+1, 4.0, 0.85)
	out := make([]WalkSample, durS)
	blocked := false
	for t := 0; t < durS; t++ {
		km := walkPos(float64(t))
		// Body/obstacle blockage is a two-state Markov process.
		if blocked {
			if rng.Float64() < 0.25 {
				blocked = false
			}
		} else if rng.Float64() < 0.06 {
			blocked = true
		}
		_, rsrp, ok := layout.Best(km, fade.Next(), !blocked)
		if !ok {
			rsrp = net.Band.EdgeRSRPDbm - 3
		}
		capacity := net.Band.LinkCapacityMbps(radio.Downlink, 8, rsrp)
		// Application demand varies independently of the channel: bulk
		// phases saturate the link, interactive phases sip at it. The
		// decoupling is what makes throughput an indispensable power-model
		// feature on top of signal strength (§4.5).
		util := 0.75 + rng.Float64()*0.2
		if rng.Float64() < 0.35 {
			util = 0.03 + rng.Float64()*0.3
		}
		out[t] = WalkSample{TSec: t, DLMbps: capacity * util, RSRPDbm: rsrp}
	}
	return out
}

// WalkLowBand generates a walking trace on low-band 5G: wide coverage, mild
// signal variation, modest rates — the upper-left cluster of Fig. 13.
func WalkLowBand(seed int64, durS int) []WalkSample {
	rng := rand.New(rand.NewSource(seed))
	net := radio.VerizonNSALowBand
	layout := cell.Layout{Net: net,
		Sites: []cell.Site{{ID: 0, Km: 0.8, Net: net}}}
	fade := cell.NewFading(seed+1, 3.0, 0.9)
	out := make([]WalkSample, durS)
	for t := 0; t < durS; t++ {
		km := walkPos(float64(t))
		_, rsrp, ok := layout.Best(km, fade.Next(), true)
		if !ok {
			rsrp = net.Band.EdgeRSRPDbm + 1
		}
		capacity := net.EffectiveCapacityMbps(radio.Downlink, 1, rsrp)
		util := 0.7 + rng.Float64()*0.25
		if rng.Float64() < 0.35 {
			util = 0.05 + rng.Float64()*0.3
		}
		out[t] = WalkSample{TSec: t, DLMbps: capacity * util, RSRPDbm: rsrp}
	}
	return out
}

// walkPos maps elapsed seconds to a position on the loop (out and back).
func walkPos(tS float64) float64 {
	pos := tS * WalkSpeedKmS
	lap := int(pos / WalkLoopKm)
	frac := pos - float64(lap)*WalkLoopKm
	if lap%2 == 1 {
		return WalkLoopKm - frac
	}
	return frac
}
