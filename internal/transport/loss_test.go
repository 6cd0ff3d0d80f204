package transport

import (
	"math"
	"math/rand"
	"testing"
)

// drawLost is SimulateTCP's loss decision for one draw u — the loop's own
// expression, with a flag set where it calls LossExact — and whether it
// evaluated LossExact to reach it. TestKernelDigest pins the loop itself.
func drawLost(u, x, ev, cg float64) (lost, exact bool) {
	lo, hi := LossBracket(x, ev, cg)
	lost = u < lo || u < hi && func() bool {
		exact = true
		return u < LossExact(x, ev, cg)
	}()
	return lost, exact
}

// TestLossBracketOracle holds the bracketed loss draw to the exact
// comparison u < LossExact. Seeded (y, ev, cg, congested) cover
// production's y below 3e-3, the whole bracketed range [0, 1], tiny y,
// y above 1 and negative y (both always exact). For each, u is the exact
// probability itself, its float64 neighbours on both sides, and uniform
// draws. The decision must equal the exact comparison every time, and
// LossExact may run only for lo <= u < hi.
func TestLossBracketOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const trials = 200000
	draws, exactRuns := 0, 0
	for trial := 0; trial < trials; trial++ {
		var y float64
		switch trial % 5 {
		case 0:
			y = rng.Float64() * 3e-3
		case 1:
			y = rng.Float64()
		case 2:
			y = math.Ldexp(rng.Float64(), -rng.Intn(80))
		case 3:
			y = 1 + rng.Float64()*8
		case 4:
			y = -rng.Float64()
		}
		ev := 0.0
		if rng.Intn(4) > 0 {
			ev = rng.Float64() * 0.5
		}
		cg := 0.0
		if rng.Intn(2) == 0 { // congested
			cg = rng.Float64()
		}
		x := -y
		lo, hi := LossBracket(x, ev, cg)
		p := LossExact(x, ev, cg)
		if y >= 0 && y <= 1 {
			if !(lo <= p && p <= hi) {
				t.Fatalf("y=%v ev=%v cg=%v: bracket [%v, %v] misses LossExact %v", y, ev, cg, lo, hi, p)
			}
			// The bracket must stay narrow, or every draw would pay for Exp.
			if w := hi - lo; w > float64(y*y/2)+2e-12+1e-14 {
				t.Fatalf("y=%v: bracket width %v, want at most y²/2 + 2e-12", y, w)
			}
		} else if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
			t.Fatalf("y=%v outside [0, 1]: bracket [%v, %v], want every draw exact", y, lo, hi)
		}
		us := []float64{p, math.Nextafter(p, math.Inf(-1)), math.Nextafter(p, math.Inf(1)),
			rng.Float64(), rng.Float64(), rng.Float64()}
		for _, u := range us {
			draws++
			lost, exact := drawLost(u, x, ev, cg)
			if lost != (u < p) {
				t.Fatalf("y=%v ev=%v cg=%v u=%v: bracket decided lost=%v, exact comparison says %v",
					y, ev, cg, u, lost, u < p)
			}
			if exact {
				exactRuns++
				if !(lo <= u && u < hi) {
					t.Fatalf("y=%v u=%v: exact path ran outside [%v, %v)", y, u, lo, hi)
				}
			}
		}
	}
	t.Logf("%d draws, %d evaluated LossExact", draws, exactRuns)
}
