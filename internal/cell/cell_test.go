package cell

import (
	"math"
	"testing"

	"fivegsim/internal/radio"
)

func TestLinearLayout(t *testing.T) {
	l := LinearLayout(radio.TMobileLTE, 10, 0.4, 0)
	if len(l.Sites) != 26 {
		t.Errorf("sites = %d, want 26 (0..10 km at 0.4 km)", len(l.Sites))
	}
	for i := 1; i < len(l.Sites); i++ {
		if d := l.Sites[i].Km - l.Sites[i-1].Km; math.Abs(d-0.4) > 1e-9 {
			t.Fatalf("spacing %v at site %d", d, i)
		}
		if l.Sites[i].ID != i {
			t.Fatalf("IDs not sequential")
		}
	}
}

func TestLinearLayoutPanicsOnBadSpacing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero spacing")
		}
	}()
	LinearLayout(radio.TMobileLTE, 10, 0, 0)
}

func TestBestPicksNearest(t *testing.T) {
	l := LinearLayout(radio.TMobileNSALowBand, 10, 2, 0)
	s, rsrp, ok := l.Best(3.1, 0, true)
	if !ok {
		t.Fatal("no usable site")
	}
	// Nearest site to km 3.1 is at km 4.
	if s.Km != 4 {
		t.Errorf("best site at %v km, want 4", s.Km)
	}
	if rsrp <= l.Net.Band.EdgeRSRPDbm {
		t.Errorf("rsrp = %v, below edge", rsrp)
	}
}

func TestBestUnusableWhenFar(t *testing.T) {
	// mmWave site at km 0; at km 5 with no LoS it is unusable.
	l := Layout{Net: radio.VerizonNSAmmWave,
		Sites: []Site{{ID: 0, Km: 0, Net: radio.VerizonNSAmmWave}}}
	if _, _, ok := l.Best(5, 0, false); ok {
		t.Error("mmWave site usable at 5 km NLoS")
	}
	if _, _, ok := l.Best(0.05, 0, true); !ok {
		t.Error("mmWave site unusable at 50 m LoS")
	}
}

func TestFadingStatistics(t *testing.T) {
	f := NewFading(1, 4, 0.9)
	n := 20000
	var sum, sumsq float64
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		v := f.Next()
		vals[i] = v
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.3 {
		t.Errorf("fading mean = %v, want ~0", mean)
	}
	if math.Abs(std-4) > 0.5 {
		t.Errorf("fading std = %v, want ~4", std)
	}
	// Lag-1 autocorrelation ~ rho.
	var acc float64
	for i := 1; i < n; i++ {
		acc += (vals[i] - mean) * (vals[i-1] - mean)
	}
	rho := acc / float64(n-1) / (std * std)
	if math.Abs(rho-0.9) > 0.05 {
		t.Errorf("lag-1 autocorrelation = %v, want ~0.9", rho)
	}
}

func TestFadingDeterministic(t *testing.T) {
	a, b := NewFading(7, 4, 0.9), NewFading(7, 4, 0.9)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("fading not deterministic for equal seeds")
		}
	}
}

func TestSelectorHandoffsOnDrive(t *testing.T) {
	// Drive past towers spaced 2 km over 10 km: expect ~5 handoffs
	// (one per boundary crossing), not dozens.
	l := LinearLayout(radio.TMobileNSALowBand, 10, 2, 0)
	sel := NewSelector(l)
	steps := 1000
	for i := 0; i <= steps; i++ {
		km := 10 * float64(i) / float64(steps)
		sel.Update(km, 0, true)
	}
	if h := sel.Handoffs(); h < 4 || h > 6 {
		t.Errorf("handoffs = %d, want ~5", h)
	}
	if !sel.Attached() {
		t.Error("not attached at route end")
	}
}

func TestSelectorHysteresisSuppressesPingPong(t *testing.T) {
	// Standing exactly between two towers with small fading wiggle: with
	// hysteresis the selector must not flap.
	l := LinearLayout(radio.TMobileNSALowBand, 4, 2, 0)
	sel := NewSelector(l)
	f := NewFading(3, 1.0, 0.5) // small fades vs 3 dB hysteresis
	for i := 0; i < 500; i++ {
		sel.Update(1.0, f.Next(), true)
	}
	if h := sel.Handoffs(); h > 3 {
		t.Errorf("handoffs at midpoint = %d, want <= 3 (hysteresis)", h)
	}
}

func TestSelectorDetachReattach(t *testing.T) {
	// One mmWave site: walk out of coverage and back.
	l := Layout{Net: radio.VerizonNSAmmWave,
		Sites: []Site{{ID: 0, Km: 0, Net: radio.VerizonNSAmmWave}}}
	sel := NewSelector(l)
	_, _, att, _ := sel.Update(0.05, 0, true)
	if !att {
		t.Fatal("not attached near site")
	}
	_, _, att, ho := sel.Update(3, 0, false)
	if att {
		t.Error("still attached 3 km from a mmWave site")
	}
	if ho {
		t.Error("detach counted as handoff")
	}
	_, _, att, ho = sel.Update(0.05, 0, true)
	if !att {
		t.Error("did not reattach")
	}
	if ho {
		t.Error("reattach counted as handoff")
	}
}

func TestCurrentSite(t *testing.T) {
	l := LinearLayout(radio.TMobileLTE, 4, 2, 0)
	sel := NewSelector(l)
	sel.Update(0.1, 0, true)
	if got := sel.Current(); got.Km != 0 {
		t.Errorf("current site at %v, want 0", got.Km)
	}
}
