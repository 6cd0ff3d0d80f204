package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fivegsim/internal/device"
	"fivegsim/internal/radio"
)

func TestCurveEvaluation(t *testing.T) {
	c := Curve{SlopeMwPerMbps: 2, BaseMw: 100}
	if got := c.PowerMw(50); got != 200 {
		t.Errorf("PowerMw(50) = %v, want 200", got)
	}
	if got := c.PowerMw(-5); got != 100 {
		t.Errorf("PowerMw(-5) = %v, want base", got)
	}
	// 200 mW at 50 Mbps = 0.2 W / 50 Mbps = 0.004 uJ/bit.
	if got := c.EfficiencyUJPerBit(50); math.Abs(got-0.004) > 1e-12 {
		t.Errorf("Efficiency = %v, want 0.004", got)
	}
	if !math.IsInf(c.EfficiencyUJPerBit(0), 1) {
		t.Error("efficiency at zero throughput should be +Inf")
	}
}

func TestTable8Slopes(t *testing.T) {
	cases := []struct {
		m     device.Model
		class radio.BandClass
		dl    float64
		ul    float64
	}{
		{device.S10, radio.ClassLTE, 13.38, 57.99},
		{device.S10, radio.ClassMmWave, 2.06, 5.27},
		{device.S20U, radio.ClassLTE, 14.55, 80.21},
		{device.S20U, radio.ClassLowBand, 13.52, 29.15},
		{device.S20U, radio.ClassMmWave, 1.81, 9.42},
	}
	for _, c := range cases {
		dl := MustCurve(c.m, c.class, radio.Downlink)
		ul := MustCurve(c.m, c.class, radio.Uplink)
		if dl.SlopeMwPerMbps != c.dl {
			t.Errorf("%s %s DL slope = %v, want %v", c.m.Short(), c.class, dl.SlopeMwPerMbps, c.dl)
		}
		if ul.SlopeMwPerMbps != c.ul {
			t.Errorf("%s %s UL slope = %v, want %v", c.m.Short(), c.class, ul.SlopeMwPerMbps, c.ul)
		}
	}
}

func TestUplinkSlopeSteeper(t *testing.T) {
	// §4.3/A.4: uplink power rises 2.2x-5.9x faster than downlink.
	for _, m := range []device.Model{device.S10, device.S20U, device.PX5} {
		for _, cl := range []radio.BandClass{radio.ClassLTE, radio.ClassLowBand, radio.ClassMmWave} {
			dl := MustCurve(m, cl, radio.Downlink)
			ul := MustCurve(m, cl, radio.Uplink)
			ratio := ul.SlopeMwPerMbps / dl.SlopeMwPerMbps
			if ratio < 2.0 || ratio > 6.5 {
				t.Errorf("%s %s UL/DL slope ratio = %.2f, want within [2.0, 6.5]", m.Short(), cl, ratio)
			}
		}
	}
}

func TestCrossoverPointsS20U(t *testing.T) {
	// Fig. 11 crossovers for the S20U.
	mmDL := MustCurve(device.S20U, radio.ClassMmWave, radio.Downlink)
	lteDL := MustCurve(device.S20U, radio.ClassLTE, radio.Downlink)
	lbDL := MustCurve(device.S20U, radio.ClassLowBand, radio.Downlink)
	x, ok := Crossover(mmDL, lteDL)
	if !ok || math.Abs(x-186.97) > 1.5 {
		t.Errorf("DL mmWave x 4G crossover = %.2f, want ~186.97", x)
	}
	x, ok = Crossover(mmDL, lbDL)
	if !ok || math.Abs(x-188.78) > 1.5 {
		t.Errorf("DL mmWave x LB crossover = %.2f, want ~188.78", x)
	}
	mmUL := MustCurve(device.S20U, radio.ClassMmWave, radio.Uplink)
	lteUL := MustCurve(device.S20U, radio.ClassLTE, radio.Uplink)
	lbUL := MustCurve(device.S20U, radio.ClassLowBand, radio.Uplink)
	x, ok = Crossover(mmUL, lteUL)
	if !ok || math.Abs(x-39.92) > 1 {
		t.Errorf("UL mmWave x 4G crossover = %.2f, want ~39.92", x)
	}
	x, ok = Crossover(mmUL, lbUL)
	if !ok || math.Abs(x-122.71) > 1.5 {
		t.Errorf("UL mmWave x LB crossover = %.2f, want ~122.71", x)
	}
}

func TestCrossoverPointsS10(t *testing.T) {
	// Fig. 26: S10 crossovers at 213 Mbps DL and 44 Mbps UL.
	mmDL := MustCurve(device.S10, radio.ClassMmWave, radio.Downlink)
	lteDL := MustCurve(device.S10, radio.ClassLTE, radio.Downlink)
	x, ok := Crossover(mmDL, lteDL)
	if !ok || math.Abs(x-213) > 2 {
		t.Errorf("S10 DL crossover = %.2f, want ~213", x)
	}
	mmUL := MustCurve(device.S10, radio.ClassMmWave, radio.Uplink)
	lteUL := MustCurve(device.S10, radio.ClassLTE, radio.Uplink)
	x, ok = Crossover(mmUL, lteUL)
	if !ok || math.Abs(x-44) > 1 {
		t.Errorf("S10 UL crossover = %.2f, want ~44", x)
	}
}

func TestCrossoverDegenerate(t *testing.T) {
	a := Curve{SlopeMwPerMbps: 1, BaseMw: 10}
	if _, ok := Crossover(a, a); ok {
		t.Error("parallel lines should have no crossover")
	}
	b := Curve{SlopeMwPerMbps: 2, BaseMw: 20}
	if _, ok := Crossover(a, b); ok {
		t.Error("negative-rate crossing should be rejected")
	}
}

func TestHighThroughputEfficiencyAdvantage(t *testing.T) {
	// §4.3: at each network's high rates, mmWave is up to ~5x more
	// efficient than 4G on downlink and ~2-4x on uplink.
	mm := MustCurve(device.S20U, radio.ClassMmWave, radio.Downlink)
	lte := MustCurve(device.S20U, radio.ClassLTE, radio.Downlink)
	effMM := mm.EfficiencyUJPerBit(2000) // mmWave near its peak
	eff4G := lte.EfficiencyUJPerBit(200) // 4G near its peak
	ratio := eff4G / effMM
	if ratio < 4 || ratio > 7 {
		t.Errorf("DL efficiency advantage = %.2fx, want ~5x", ratio)
	}
	// And at low throughput mmWave is much worse (74-79% less efficient).
	effMMlow := mm.EfficiencyUJPerBit(10)
	eff4Glow := lte.EfficiencyUJPerBit(10)
	frac := 1 - eff4Glow/effMMlow
	if frac < 0.6 || frac > 0.9 {
		t.Errorf("low-rate inefficiency = %.2f, want ~0.74-0.79", frac)
	}
}

func TestCurveForFallbacks(t *testing.T) {
	// Mid-band falls back to low-band.
	mb := MustCurve(device.S20U, radio.ClassMidBand, radio.Downlink)
	lb := MustCurve(device.S20U, radio.ClassLowBand, radio.Downlink)
	if mb != lb {
		t.Error("mid-band should reuse the low-band curve")
	}
	if _, err := CurveFor(device.Model("Nokia"), radio.ClassLTE, radio.Downlink); err == nil {
		t.Error("unknown device did not error")
	}
}

func TestMustCurvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCurve did not panic")
		}
	}()
	MustCurve(device.Model("Nokia"), radio.ClassLTE, radio.Downlink)
}

func TestPoorness(t *testing.T) {
	if got := Poorness(radio.ClassMmWave, -70); got != 0 {
		t.Errorf("poorness at peak = %v, want 0", got)
	}
	if got := Poorness(radio.ClassMmWave, -110); got != 1 {
		t.Errorf("poorness at edge = %v, want 1", got)
	}
	mid := Poorness(radio.ClassMmWave, -90)
	if mid < 0.45 || mid > 0.55 {
		t.Errorf("poorness mid-range = %v, want ~0.5", mid)
	}
	if got := Poorness(radio.ClassLTE, 0); got != 0 {
		t.Errorf("zero RSRP (unknown) poorness = %v, want 0", got)
	}
}

func TestRadioPowerSignalEffect(t *testing.T) {
	// Fig. 13/14: worse signal -> more power at the same throughput.
	good := Activity{Class: radio.ClassMmWave, DLMbps: 500, RSRPDbm: -72}
	bad := Activity{Class: radio.ClassMmWave, DLMbps: 500, RSRPDbm: -105}
	pg, err := RadioPowerMw(device.S10, good)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := RadioPowerMw(device.S10, bad)
	if err != nil {
		t.Fatal(err)
	}
	if pb <= pg {
		t.Errorf("poor-signal power %v <= good-signal power %v", pb, pg)
	}
	// The inflation should be substantial but bounded (< 2x).
	if pb > 2*pg {
		t.Errorf("poor-signal power %v more than doubles good-signal %v", pb, pg)
	}
}

func TestRadioPowerThroughputMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rsrp := -110 + rng.Float64()*40
		t1 := rng.Float64() * 1000
		t2 := rng.Float64() * 1000
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		p1, err1 := RadioPowerMw(device.S20U, Activity{Class: radio.ClassMmWave, DLMbps: t1, RSRPDbm: rsrp})
		p2, err2 := RadioPowerMw(device.S20U, Activity{Class: radio.ClassMmWave, DLMbps: t2, RSRPDbm: rsrp})
		return err1 == nil && err2 == nil && p1 <= p2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUplinkDominantBase(t *testing.T) {
	// When uplink dominates, the (higher) uplink base applies.
	ulAct := Activity{Class: radio.ClassMmWave, ULMbps: 100}
	dlAct := Activity{Class: radio.ClassMmWave, DLMbps: 100}
	pu, _ := RadioPowerMw(device.S20U, ulAct)
	pd, _ := RadioPowerMw(device.S20U, dlAct)
	if pu <= pd {
		t.Errorf("uplink-dominant power %v <= downlink %v", pu, pd)
	}
}

func TestDevicePowerIdleCalibration(t *testing.T) {
	// Table 3: idle with screen on ~2014 mW. Radio contribution in idle is
	// handled by rrc; at zero throughput a connected radio still draws its
	// base power on top of the screen + SoC floor.
	if base := MustCurve(device.S20U, radio.ClassLTE, radio.Downlink).PowerMw(0); base <= 0 {
		t.Errorf("zero-throughput connected radio power = %v, want > 0", base)
	}
	// Screen + SoC floor matches the Table 3 idle measurement within 2%.
	idle := ScreenMaxMw + SoCBaseMw + 14 // + idle radio (Verizon 4G)
	if math.Abs(idle-2014.3) > 0.02*2014.3 {
		t.Errorf("idle total = %v, want ~2014.3", idle)
	}
}

func TestEfficiencyUJPerBit(t *testing.T) {
	c := MustCurve(device.S20U, radio.ClassLTE, radio.Downlink)
	e := c.EfficiencyUJPerBit(100)
	want := (800 + 14.55*100) / 1000 / 100
	if math.Abs(e-want) > 1e-12 {
		t.Errorf("efficiency = %v, want %v", e, want)
	}
	if e2 := c.EfficiencyUJPerBit(0); !math.IsInf(e2, 1) {
		t.Error("zero-throughput efficiency should be +Inf")
	}
}

func TestEfficiencyDecreasesWithRSRP(t *testing.T) {
	// Fig. 14: as RSRP increases, energy per bit decreases.
	prev := math.Inf(1)
	for _, rsrp := range []float64{-108, -98, -88, -78} {
		p, err := RadioPowerMw(device.S10,
			Activity{Class: radio.ClassMmWave, DLMbps: 400, RSRPDbm: rsrp})
		if err != nil {
			t.Fatal(err)
		}
		e := p / 1000 / 400
		if e > prev {
			t.Errorf("efficiency not improving with RSRP at %v dBm", rsrp)
		}
		prev = e
	}
}

func TestLogLogLinearityOfEfficiency(t *testing.T) {
	// §4.3's mathematical note: log E ~ c3 log T + c4. Check approximate
	// linearity in log-log space for the 4G curve: correlation of
	// (logT, logE) should be near -1 at low rates where base dominates.
	c := MustCurve(device.S20U, radio.ClassLTE, radio.Downlink)
	var lt, le []float64
	for th := 1.0; th <= 32; th *= 2 {
		lt = append(lt, math.Log(th))
		le = append(le, math.Log(c.EfficiencyUJPerBit(th)))
	}
	// Slope of log E vs log T should be close to -1 in this regime.
	n := float64(len(lt))
	var sx, sy, sxx, sxy float64
	for i := range lt {
		sx += lt[i]
		sy += le[i]
		sxx += lt[i] * lt[i]
		sxy += lt[i] * le[i]
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	if slope > -0.8 || slope < -1.05 {
		t.Errorf("log-log slope = %.3f, want ~-1 (base-dominated regime)", slope)
	}
}
