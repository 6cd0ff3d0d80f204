// Package monsoon models the study's software power measurement channel.
//
// The Monsoon hardware power monitor (§2) powers the phone directly and
// samples at 5000 Hz with negligible error, so the experiments take the
// power model's value as its reading: that value is the ground truth of
// every power experiment, and nothing here simulates the hardware.
//
// What is simulated is the Android software "monitor" (§4.6), which polls
// the battery status sysfs (current_now/voltage_now) at 1 or 10 Hz. The
// software path systematically underestimates power by a level-dependent
// factor (Table 9: 81-92% of truth at 1 Hz, 90-95% at 10 Hz), and polling
// itself costs energy (Table 3: ~0.65 W at 1 Hz, ~1.1 W at 10 Hz).
//
// The calibration experiment of Fig. 16 — train a decision-tree regressor
// from software readings to hardware truth — is supported via the Calibrate
// helper.
package monsoon

import (
	"fmt"
	"math"
	"math/rand"

	"fivegsim/internal/dtree"
)

// Software monitor overhead (Table 3): monitor on at 1 Hz raised idle power
// from 2014.3 mW to 2668.5 mW; at 10 Hz to 3125.7 mW.
const (
	Overhead1HzMw  = 654.2
	Overhead10HzMw = 1111.4
)

// SWMonitor is the battery-API software power monitor.
type SWMonitor struct {
	RateHz float64
	rng    *rand.Rand
}

// NewSW creates a software monitor polling at rateHz (the study used 1 and
// 10 Hz).
func NewSW(rateHz float64, seed int64) (*SWMonitor, error) {
	if rateHz <= 0 {
		return nil, fmt.Errorf("monsoon: invalid software sampling rate %v", rateHz)
	}
	return &SWMonitor{RateHz: rateHz, rng: rand.New(rand.NewSource(seed))}, nil
}

// OverheadMw returns the extra device power drawn by polling at the
// monitor's rate, interpolated between the measured 1 Hz and 10 Hz points.
func (m *SWMonitor) OverheadMw() float64 {
	r := m.RateHz
	if r <= 1 {
		return Overhead1HzMw * r
	}
	if r >= 10 {
		return Overhead10HzMw
	}
	return Overhead1HzMw + (r-1)/9*(Overhead10HzMw-Overhead1HzMw)
}

// bias returns the multiplicative underestimation factor of the battery API
// at a true power level. The battery fuel gauge low-passes and quantises
// current, clipping load peaks, so the factor depends nonlinearly on the
// power level — which is exactly why a learned (DTR) calibration beats a
// constant correction (§4.6). Faster polling recovers more of the peaks.
func (m *SWMonitor) bias(trueMw float64) float64 {
	if m.RateHz >= 10 {
		return 0.920 + 0.030*math.Sin(trueMw/1400+0.5)
	}
	return 0.845 + 0.055*math.Sin(trueMw/1100+0.3)
}

// noiseSigma is the multiplicative reading noise; faster polling averages
// more gauge updates and is slightly cleaner.
func (m *SWMonitor) noiseSigma() float64 {
	if m.RateHz >= 10 {
		return 0.022
	}
	return 0.045
}

// Read produces one software reading of a true instantaneous power.
func (m *SWMonitor) Read(trueMw float64) float64 {
	r := trueMw * m.bias(trueMw) * (1 + m.rng.NormFloat64()*m.noiseSigma())
	if r < 0 {
		r = 0
	}
	return r
}

// Calibrate trains a decision-tree regressor mapping software readings to
// hardware truth (Fig. 16). readings and truth are paired samples gathered
// across diverse activities.
func Calibrate(readings, truth []float64) (*dtree.Regressor, error) {
	if len(readings) != len(truth) {
		return nil, fmt.Errorf("monsoon: %d readings vs %d truths", len(readings), len(truth))
	}
	X := make([][]float64, len(readings))
	for i, r := range readings {
		X[i] = []float64{r}
	}
	return dtree.TrainRegressor(X, truth, dtree.Options{MaxDepth: 10, MinLeaf: 5})
}
