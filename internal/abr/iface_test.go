package abr

import (
	"testing"

	"fivegsim/internal/trace"
)

func ifaceEval(t *testing.T, scheme Scheme, n int) (stallPct, bitrate, time4G, switches float64) {
	t.Helper()
	v := video5G(t)
	for i := 0; i < n; i++ {
		tr5 := trace.Gen5GmmWave(int64(i)*7919+1, 400)
		tr4 := trace.Gen4G(int64(i)*104729+1, 400)
		r := SimulateIface(v, &MPC{}, tr5, tr4, scheme, BufferHighS)
		stallPct += r.StallPct
		bitrate += r.NormBitrate
		time4G += r.Time4GS
		switches += float64(r.Switches4G)
	}
	f := float64(n)
	return stallPct / f, bitrate / f, time4G / f, switches / f
}

func TestSchemeStrings(t *testing.T) {
	if Always5G.String() != "5G-only" || FiveGAware.String() != "5G-aware" ||
		FiveGAwareNoOverhead.String() != "5G-aware NO" {
		t.Error("scheme strings wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme should format")
	}
}

func TestFiveGAwareReducesStalls(t *testing.T) {
	// Fig. 18c: the 5G-aware scheme cuts stall time versus always-5G
	// (26.9% in the paper) without wrecking bitrate.
	only, onlyBr, _, _ := ifaceEval(t, Always5G, 30)
	aware, awareBr, t4, sw := ifaceEval(t, FiveGAware, 30)
	if aware >= only {
		t.Errorf("5G-aware stalls %v >= 5G-only %v", aware, only)
	}
	if red := (only - aware) / only * 100; red < 5 {
		t.Errorf("stall reduction = %.1f%%, want a material cut", red)
	}
	// Quality is not compromised: bitrate within ~10% of always-5G.
	if awareBr < 0.9*onlyBr {
		t.Errorf("5G-aware bitrate %v vs 5G-only %v", awareBr, onlyBr)
	}
	// The scheme actually uses 4G, but only as a minority detour.
	if t4 <= 0 {
		t.Error("5G-aware never used 4G")
	}
	if t4 > 100 {
		t.Errorf("time on 4G = %v s, should be a short detour", t4)
	}
	if sw <= 0 {
		t.Error("no 5G->4G switches recorded")
	}
}

func TestAlways5GNeverSwitches(t *testing.T) {
	_, _, t4, sw := ifaceEval(t, Always5G, 10)
	if t4 != 0 || sw != 0 {
		t.Errorf("always-5G used 4G: t4=%v sw=%v", t4, sw)
	}
}

func TestNoOverheadWithinFewPercent(t *testing.T) {
	// Fig. 18c: the realistic scheme (with switch delay) incurs only ~4%
	// more stall than the idealised no-overhead variant.
	aware, _, _, _ := ifaceEval(t, FiveGAware, 30)
	no, _, _, _ := ifaceEval(t, FiveGAwareNoOverhead, 30)
	diff := (aware - no) / no * 100
	if diff > 15 || diff < -15 {
		t.Errorf("overhead vs no-overhead stall difference = %.1f%%, want small", diff)
	}
}

func TestIfaceSamplesCoverSession(t *testing.T) {
	v := video5G(t)
	tr5 := trace.Gen5GmmWave(8, 400)
	tr4 := trace.Gen4G(9, 400)
	r := SimulateIface(v, &MPC{}, tr5, tr4, FiveGAware, BufferHighS)
	if len(r.UsageMbps) == 0 || len(r.On5G) != len(r.UsageMbps) {
		t.Fatalf("%d interface flags for %d seconds of usage", len(r.On5G), len(r.UsageMbps))
	}
	var total float64
	saw4G := false
	for s, mb := range r.UsageMbps {
		if mb < 0 {
			t.Fatal("negative usage")
		}
		total += mb
		if !r.On5G[s] && mb > 0 {
			saw4G = true
		}
	}
	var size float64
	for _, q := range r.Qualities {
		size += v.ChunkMb(q)
	}
	if total < 0.99*size || total > 1.01*size {
		t.Errorf("sample usage %v vs downloaded %v", total, size)
	}
	if r.Switches4G > 0 && !saw4G {
		t.Error("switched to 4G but no 4G bytes recorded")
	}
}

func TestIfaceQualityCappedOn4G(t *testing.T) {
	// During 4G detours the scheme must not request tracks far beyond 4G
	// capacity.
	v := video5G(t)
	// A 5G trace that collapses for a long stretch forces a 4G detour.
	tr5 := make([]float64, 400)
	for i := range tr5 {
		if i > 20 && i < 200 {
			tr5[i] = 3
		} else {
			tr5[i] = 400
		}
	}
	tr4 := flat(27, 400)
	r := SimulateIface(v, &MPC{}, tr5, tr4, FiveGAware, BufferHighS)
	if r.Time4GS <= 0 {
		t.Fatal("long 5G outage did not trigger a 4G detour")
	}
	// Stall far less than if the player had stayed on the dead 5G link.
	only := SimulateIface(v, &MPC{}, tr5, tr4, Always5G, BufferHighS)
	if r.StallS >= only.StallS {
		t.Errorf("detour stalls %v >= 5G-only %v under a dead 5G link", r.StallS, only.StallS)
	}
}

func TestIfaceDeterministic(t *testing.T) {
	v := video5G(t)
	tr5 := trace.Gen5GmmWave(3, 400)
	tr4 := trace.Gen4G(4, 400)
	a := SimulateIface(v, &MPC{}, tr5, tr4, FiveGAware, BufferHighS)
	b := SimulateIface(v, &MPC{}, tr5, tr4, FiveGAware, BufferHighS)
	if a.QoE != b.QoE || a.Time4GS != b.Time4GS {
		t.Error("interface simulation not deterministic")
	}
}
