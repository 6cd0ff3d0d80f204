package monsoon

import (
	"math"
	"testing"

	"fivegsim/internal/stats"
)

func TestNewSWValidation(t *testing.T) {
	if _, err := NewSW(0, 1); err == nil {
		t.Error("zero rate did not error")
	}
	if _, err := NewSW(-3, 1); err == nil {
		t.Error("negative rate did not error")
	}
}

func TestOverheadTable3(t *testing.T) {
	m1, _ := NewSW(1, 1)
	m10, _ := NewSW(10, 1)
	if m1.OverheadMw() != Overhead1HzMw {
		t.Errorf("1 Hz overhead = %v", m1.OverheadMw())
	}
	if m10.OverheadMw() != Overhead10HzMw {
		t.Errorf("10 Hz overhead = %v", m10.OverheadMw())
	}
	// Table 3's totals: idle 2014.3 -> 2668.5 (1 Hz) -> 3125.7 (10 Hz).
	idle := 2014.3
	if got := idle + m1.OverheadMw(); math.Abs(got-2668.5) > 0.1 {
		t.Errorf("idle + 1 Hz overhead = %v, want 2668.5", got)
	}
	if got := idle + m10.OverheadMw(); math.Abs(got-3125.7) > 0.1 {
		t.Errorf("idle + 10 Hz overhead = %v, want 3125.7", got)
	}
	// Intermediate rates interpolate monotonically.
	m5, _ := NewSW(5, 1)
	if m5.OverheadMw() <= m1.OverheadMw() || m5.OverheadMw() >= m10.OverheadMw() {
		t.Errorf("5 Hz overhead = %v, want between 1 Hz and 10 Hz", m5.OverheadMw())
	}
}

func TestSWAlwaysUnderestimates(t *testing.T) {
	// Table 9: the software approach always underestimates power.
	for _, rate := range []float64{1, 10} {
		m, _ := NewSW(rate, 42)
		for _, p := range []float64{300, 1000, 2014, 3500, 5600, 8000} {
			// Average many readings to beat the noise.
			s := 0.0
			for i := 0; i < 200; i++ {
				s += m.Read(p)
			}
			mean := s / 200
			if mean >= p {
				t.Errorf("rate %v: SW mean reading %v >= true %v", rate, mean, p)
			}
			rel := mean / p
			if rel < 0.78 || rel > 0.97 {
				t.Errorf("rate %v at %v mW: relative = %.3f, want within [0.78, 0.97]", rate, p, rel)
			}
		}
	}
}

func TestHigherRateMoreAccurate(t *testing.T) {
	// Table 9: 10 Hz relative errors are closer to 100% than 1 Hz.
	m1, _ := NewSW(1, 7)
	m10, _ := NewSW(10, 7)
	for _, p := range []float64{500, 2014, 3500, 5600} {
		r1, r10 := 0.0, 0.0
		for i := 0; i < 300; i++ {
			r1 += m1.Read(p)
			r10 += m10.Read(p)
		}
		if r1/300 >= r10/300 {
			t.Errorf("at %v mW: 1 Hz reading %v >= 10 Hz reading %v", p, r1/300, r10/300)
		}
	}
}

func TestCalibrationRecoversTruth(t *testing.T) {
	// Fig. 16: after DTR calibration the software approach reaches MAPE
	// comparable to the hardware-trained power models (single digits).
	m, _ := NewSW(10, 11)
	var readings, truth []float64
	// Train across diverse power levels (different activities).
	for p := 300.0; p <= 8000; p += 25 {
		for i := 0; i < 4; i++ {
			readings = append(readings, m.Read(p))
			truth = append(truth, p)
		}
	}
	cal, err := Calibrate(readings, truth)
	if err != nil {
		t.Fatal(err)
	}
	// Held-out evaluation.
	var pred, want []float64
	for p := 310.0; p <= 7900; p += 97 {
		pred = append(pred, cal.Predict([]float64{m.Read(p)}))
		want = append(want, p)
	}
	mape, err := stats.MAPE(pred, want)
	if err != nil {
		t.Fatal(err)
	}
	if mape > 6 {
		t.Errorf("calibrated MAPE = %.2f%%, want <= 6%%", mape)
	}
	// Uncalibrated MAPE is much worse (the raw ~10-20% underestimation).
	var raw []float64
	for _, p := range want {
		raw = append(raw, m.Read(p))
	}
	rawMape, _ := stats.MAPE(raw, want)
	if rawMape < 2*mape {
		t.Errorf("raw MAPE %.2f%% should dwarf calibrated %.2f%%", rawMape, mape)
	}
}

func TestCalibrate1HzWorseThan10Hz(t *testing.T) {
	// Fig. 16: the 10 Hz calibration achieves lower MAPE than 1 Hz.
	mapeFor := func(rate float64) float64 {
		m, _ := NewSW(rate, 13)
		var readings, truth []float64
		for p := 300.0; p <= 8000; p += 20 {
			readings = append(readings, m.Read(p))
			truth = append(truth, p)
		}
		cal, err := Calibrate(readings, truth)
		if err != nil {
			t.Fatal(err)
		}
		var pred, want []float64
		for p := 305.0; p <= 7900; p += 83 {
			pred = append(pred, cal.Predict([]float64{m.Read(p)}))
			want = append(want, p)
		}
		mape, err := stats.MAPE(pred, want)
		if err != nil {
			t.Fatal(err)
		}
		return mape
	}
	m1, m10 := mapeFor(1), mapeFor(10)
	if m10 >= m1 {
		t.Errorf("10 Hz calibrated MAPE %.2f%% should beat 1 Hz %.2f%%", m10, m1)
	}
}

func TestCalibrateValidation(t *testing.T) {
	if _, err := Calibrate([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch did not error")
	}
}

func TestReadNonNegative(t *testing.T) {
	m, _ := NewSW(1, 17)
	for i := 0; i < 100; i++ {
		if m.Read(1) < 0 {
			t.Fatal("negative reading")
		}
	}
}
