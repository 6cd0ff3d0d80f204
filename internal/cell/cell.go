// Package cell models cellular tower deployments along measurement routes:
// site layouts, time-correlated shadow fading, serving-cell selection with
// hysteresis, and the resulting horizontal (tower-to-tower) and vertical
// (radio-technology) handoff dynamics of §3.3.
//
// Routes are one-dimensional (a position in km along the drive/walk), which
// is exactly the geometry of the paper's experiments: a fixed 10 km driving
// route and a fixed 1.6 km walking loop. Towers of each deployment sit at
// positions along the route; the UE's serving site is tracked with a
// hysteresis rule so small signal wiggles do not cause handoff storms —
// except where they really do (NSA's NR leg, see package mobility).
package cell

import (
	"fmt"
	"math"
	"math/rand"

	"fivegsim/internal/radio"
)

// Site is one tower (or one sector of one) of a deployment, at a position
// along a 1-D route.
type Site struct {
	ID  int
	Km  float64
	Net radio.Network
}

// RSRPAt returns the site's signal at route position km, given a shadowing
// term in dB (time-varying, from a Fading process) and line-of-sight state.
func (s Site) RSRPAt(km float64, shadowDb float64, los bool) float64 {
	d := math.Abs(km - s.Km)
	return s.Net.Band.RSRPAt(d, los, shadowDb)
}

// Layout is the set of sites of one deployment along a route.
type Layout struct {
	Net   radio.Network
	Sites []Site
}

// LinearLayout places sites every spacing km along a route of the given
// length, starting at offset. It panics on non-positive spacing, which is
// always a configuration bug.
func LinearLayout(net radio.Network, lengthKm, spacingKm, offsetKm float64) Layout {
	if spacingKm <= 0 {
		panic(fmt.Sprintf("cell: non-positive spacing %v", spacingKm))
	}
	l := Layout{Net: net}
	id := 0
	for km := offsetKm; km <= lengthKm+spacingKm/2; km += spacingKm {
		l.Sites = append(l.Sites, Site{ID: id, Km: km, Net: net})
		id++
	}
	return l
}

// Best returns the strongest site at position km under the given shadowing,
// with ok=false when no site is usable (RSRP below the band's edge).
func (l Layout) Best(km, shadowDb float64, los bool) (Site, float64, bool) {
	bestIdx := -1
	bestRSRP := math.Inf(-1)
	for i, s := range l.Sites {
		r := s.RSRPAt(km, shadowDb, los)
		if r > bestRSRP {
			bestRSRP = r
			bestIdx = i
		}
	}
	if bestIdx < 0 || bestRSRP <= l.Net.Band.EdgeRSRPDbm {
		return Site{}, bestRSRP, false
	}
	return l.Sites[bestIdx], bestRSRP, true
}

// BestBaseRSRP returns the maximum shadow-free line-of-sight base RSRP
// (radio.Band.LoSRSRPRefDbm) over the layout's sites at route position km —
// Best's maximand before the shadow term and the -140 dBm floor, -Inf for
// an empty layout. Because one shadow value offsets every site of a layout
// equally and both the max and the floor clamp are monotone, for any
// shadowDb the RSRP value Best(km, shadowDb, true) returns equals
// clamp(BestBaseRSRP(km) + shadowDb) bit-for-bit; argmax ties under the
// clamp can change which Site wins, never the returned float. This is what
// lets a caller with a static position cache the base once and replay only
// the add and the clamp per step.
//
// Sites are ordered by ascending Km (the LinearLayout invariant), so the
// maximum is found without evaluating a path loss per site: path loss grows
// with distance, and for sites on the same side of km the distance gap to
// the next-nearer site is the (macroscopic) site-position gap exactly, so
// only the two sites bracketing km can attain the maximum — any other site
// is farther by at least one spacing, which dwarfs the sub-ulp wiggle a
// faithfully-rounded Log10 could contribute.
func (l Layout) BestBaseRSRP(km float64) float64 {
	n := len(l.Sites)
	if n == 0 {
		return math.Inf(-1)
	}
	// First site with Km >= km (n-1 if none): it and its left neighbour
	// bracket the position.
	lo, hi := 0, n-1
	for lo < hi {
		if mid := (lo + hi) / 2; l.Sites[mid].Km < km {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best := math.Inf(-1)
	for i := lo - 1; i <= lo; i++ {
		if i < 0 {
			continue
		}
		d := math.Abs(km - l.Sites[i].Km)
		if r := l.Net.Band.LoSRSRPRefDbm(d); r > best {
			best = r
		}
	}
	return best
}

// Fading is a first-order autoregressive (Gauss-Markov) shadow-fading
// process in dB: correlated over seconds, as measured fading is. The zero
// value is not usable; construct with NewFading.
type Fading struct {
	rng   *rand.Rand
	state float64
	// SigmaDb is the stationary standard deviation.
	SigmaDb float64
	// Rho is the per-step correlation (e.g. 0.9 at 1 Hz sampling).
	Rho float64
}

// NewFading creates a fading process with standard deviation sigma dB and
// per-step correlation rho in [0,1).
func NewFading(seed int64, sigmaDb, rho float64) *Fading {
	return &Fading{rng: rand.New(rand.NewSource(seed)), SigmaDb: sigmaDb, Rho: rho}
}

// Next advances the process one step and returns the shadowing in dB.
func (f *Fading) Next() float64 {
	innov := f.rng.NormFloat64() * f.SigmaDb * math.Sqrt(1-f.Rho*f.Rho)
	f.state = f.Rho*f.state + innov
	return f.state
}

// Selector tracks the serving site of one deployment with hysteresis: the
// UE hands off only when a neighbour beats the serving site by hystDb (or
// the serving site becomes unusable).
type Selector struct {
	Layout Layout

	current  Site
	attached bool
}

// hystDb is the handoff hysteresis, a common A3 offset.
const hystDb = 3

// NewSelector returns a selector for a layout.
func NewSelector(l Layout) *Selector {
	return &Selector{Layout: l}
}

// Update re-evaluates the serving cell at route position km. It returns the
// serving site, its RSRP, whether the UE is attached at all, and whether
// this update caused a horizontal handoff.
func (s *Selector) Update(km, shadowDb float64, los bool) (site Site, rsrp float64, attached, handoff bool) {
	best, bestRSRP, ok := s.Layout.Best(km, shadowDb, los)
	if !ok {
		// No usable cell: detach (not a handoff).
		s.attached = false
		return Site{}, bestRSRP, false, false
	}
	if !s.attached {
		s.current = best
		s.attached = true
		return best, bestRSRP, true, false
	}
	curRSRP := s.current.RSRPAt(km, shadowDb, los)
	if best.ID != s.current.ID && bestRSRP > curRSRP+hystDb {
		s.current = best
		return best, bestRSRP, true, true
	}
	if curRSRP <= s.Layout.Net.Band.EdgeRSRPDbm {
		// Serving cell died but a neighbour is usable: forced handoff.
		s.current = best
		return best, bestRSRP, true, true
	}
	return s.current, curRSRP, true, false
}
