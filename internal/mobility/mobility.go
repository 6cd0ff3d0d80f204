// Package mobility reproduces the driving handoff experiment of §3.3
// (Fig. 9): a 10 km route through downtown and freeway segments, driven
// under five different radio band configurations of the UE, logging every
// horizontal (tower-to-tower) and vertical (radio-technology) handoff and
// the active-radio timeline.
//
// The paper's headline finding is encoded in the deployment geometry and
// attach policies here: SA 5G on wide-coverage n71 sees very few handoffs
// (~13), while NSA — whose NR leg is added and released around aggressive
// signal thresholds on top of the LTE anchor — sees an order of magnitude
// more (~110, of which ~90 are vertical 4G<->5G switches).
package mobility

import (
	"fmt"

	"fivegsim/internal/cell"
	"fivegsim/internal/radio"
)

// BandConfig is one of the five UE band-enable settings of Fig. 9
// (selected on the real UE via Samsung's *#2263# service code).
type BandConfig int

const (
	// SAOnly enables the SA n71 band only.
	SAOnly BandConfig = iota
	// NSAPlusLTE enables NSA n71 and LTE.
	NSAPlusLTE
	// LTEOnly enables LTE bands only.
	LTEOnly
	// SAPlusLTE enables SA n71 and LTE.
	SAPlusLTE
	// AllBands enables everything (the UE default).
	AllBands
)

func (b BandConfig) String() string {
	switch b {
	case SAOnly:
		return "SA-5G only"
	case NSAPlusLTE:
		return "NSA-5G + LTE"
	case LTEOnly:
		return "LTE only"
	case SAPlusLTE:
		return "SA-5G + LTE"
	case AllBands:
		return "All Bands"
	default:
		return fmt.Sprintf("BandConfig(%d)", int(b))
	}
}

// AllConfigs lists the five settings in the order Fig. 9 plots them.
var AllConfigs = []BandConfig{SAOnly, NSAPlusLTE, LTEOnly, SAPlusLTE, AllBands}

// Tech is the radio technology actively carrying data.
type Tech int

const (
	// TechNone means no usable radio (coverage hole).
	TechNone Tech = iota
	// Tech4G is LTE.
	Tech4G
	// TechNSA5G is NSA 5G (NR leg on the LTE anchor).
	TechNSA5G
	// TechSA5G is standalone 5G.
	TechSA5G
)

func (t Tech) String() string {
	switch t {
	case Tech4G:
		return "4G"
	case TechNSA5G:
		return "NSA-5G"
	case TechSA5G:
		return "SA-5G"
	default:
		return "none"
	}
}

// HandoffKind distinguishes tower changes from technology changes.
type HandoffKind int

const (
	// Horizontal is a handoff across towers of the same technology.
	Horizontal HandoffKind = iota
	// Vertical is a switch across radio technologies (e.g. 4G <-> 5G).
	Vertical
)

func (k HandoffKind) String() string {
	if k == Vertical {
		return "vertical"
	}
	return "horizontal"
}

// Event is one handoff occurrence.
type Event struct {
	At   float64 // seconds into the drive
	Km   float64 // route position
	Kind HandoffKind
	From Tech
	To   Tech
}

// Segment is one span of the active-radio timeline (the coloured bars of
// Fig. 9).
type Segment struct {
	Start, End float64 // seconds
	Tech       Tech
}

// Result is the full log of one drive.
type Result struct {
	Config     BandConfig
	DurationS  float64
	RouteKm    float64
	Segments   []Segment
	Events     []Event
	Horizontal int
	Vertical   int
}

// Total returns the total handoff count (the per-bar numbers of Fig. 9).
func (r Result) Total() int { return r.Horizontal + r.Vertical }

// TimeOn returns the seconds spent with the given technology active.
func (r Result) TimeOn(t Tech) float64 {
	var s float64
	for _, seg := range r.Segments {
		if seg.Tech == t {
			s += seg.End - seg.Start
		}
	}
	return s
}

// Route geometry and drive profile (§3.3): 10 km through busy downtown and
// freeway, speeds 0-100 kph, ~10 minutes end to end.
const (
	RouteKm   = 10.0
	driveStep = 1.0 // s
)

// speedKph is the drive speed profile: slow downtown start, arterial roads,
// a freeway stretch, then surface streets to the end.
func speedKph(t float64) float64 {
	switch {
	case t < 120:
		return 22 // downtown crawl
	case t < 280:
		return 45 // arterial
	case t < 500:
		return 100 // freeway
	default:
		return 35 // surface streets
	}
}

// Deployment geometry along the route. LTE is densely deployed downtown
// (urban capacity sites); n71 sits on fewer macro towers with wide reach.
const (
	lteSpacingKm = 0.34
	nrSpacingKm  = 0.78
)

// NR-leg attach policies. NSA's EN-DC secondary leg is added/released
// around aggressive RSRP thresholds with little hysteresis — the source of
// its vertical-handoff storm. SA reselection is far more conservative.
const (
	nsaAddDbm       = -72
	nsaDropDbm      = -74
	saAddDbm        = -80
	saDropDbm       = -86
	allSAAddDbm     = -74 // with all bands on, the UE prefers SA only on strong signal
	allSADropDbm    = -79
	fadingSigmaDb   = 5.0
	fadingRho       = 0.65
	fastFadeSigmaDb = 4.0
	fastFadeRho     = 0.30
)

// nrLeg tracks whether an NR attachment (NSA secondary leg or SA service)
// is currently up, with add/drop thresholds.
type nrLeg struct {
	up       bool
	add, drp float64
}

func (l *nrLeg) update(rsrp float64) {
	if l.up && rsrp < l.drp {
		l.up = false
	} else if !l.up && rsrp > l.add {
		l.up = true
	}
}

// Drive simulates the 10 km route once under a band configuration. The seed
// drives the fading processes; the paper drove each configuration 2x per
// direction — call Drive with distinct seeds to replicate that.
func Drive(cfg BandConfig, seed int64) Result {
	lteLayout := cell.LinearLayout(radio.TMobileLTE, RouteKm, lteSpacingKm, 0.12)
	nrNet := radio.TMobileNSALowBand
	if cfg == SAOnly || cfg == SAPlusLTE {
		nrNet = radio.TMobileSALowBand
	}
	nrLayout := cell.LinearLayout(nrNet, RouteKm, nrSpacingKm, 0.31)

	lteSel := cell.NewSelector(lteLayout)
	nrSel := cell.NewSelector(nrLayout)
	lteFade := cell.NewFading(seed, fadingSigmaDb, fadingRho)
	nrFade := cell.NewFading(seed+1, fadingSigmaDb, fadingRho)
	// The EN-DC leg decision additionally sees fast fading that SA/LTE
	// reselection filters out - the proximate cause of NSA flappiness.
	nsaFade := cell.NewFading(seed+2, fastFadeSigmaDb, fastFadeRho)

	nsa := nrLeg{add: nsaAddDbm, drp: nsaDropDbm}
	sa := nrLeg{add: saAddDbm, drp: saDropDbm}
	if cfg == AllBands {
		sa = nrLeg{add: allSAAddDbm, drp: allSADropDbm}
	}

	res := Result{Config: cfg, RouteKm: RouteKm}
	active := TechNone
	segStart := 0.0
	km := 0.0
	t := 0.0
	for km < RouteKm {
		lteShadow := lteFade.Next()
		nrShadow := nrFade.Next()
		_, _, lteUp, lteHO := lteSel.Update(km, lteShadow, true)
		_, nrRSRP, nrUp, nrHO := nrSel.Update(km, nrShadow, true)
		if !nrUp {
			nrRSRP = -140
		}
		nsa.update(nrRSRP + nsaFade.Next())
		sa.update(nrRSRP)

		// Resolve the active technology under this band configuration.
		next := TechNone
		switch cfg {
		case SAOnly:
			if nrUp {
				next = TechSA5G
			}
		case LTEOnly:
			if lteUp {
				next = Tech4G
			}
		case NSAPlusLTE:
			switch {
			case lteUp && nrUp && nsa.up:
				next = TechNSA5G // NR leg rides on the LTE anchor
			case lteUp:
				next = Tech4G
			}
		case SAPlusLTE:
			switch {
			case nrUp && sa.up:
				next = TechSA5G
			case lteUp:
				next = Tech4G
			}
		case AllBands:
			switch {
			case nrUp && sa.up:
				next = TechSA5G
			case lteUp && nrUp && nsa.up:
				next = TechNSA5G
			case lteUp:
				next = Tech4G
			}
		}

		if next != active {
			if active != TechNone && next != TechNone {
				res.Vertical++
				res.Events = append(res.Events, Event{At: t, Km: km,
					Kind: Vertical, From: active, To: next})
			}
			res.Segments = append(res.Segments, Segment{Start: segStart, End: t, Tech: active})
			segStart = t
			active = next
		}

		// Horizontal handoffs count on the layer currently serving data.
		switch active {
		case Tech4G:
			if lteHO {
				res.Horizontal++
				res.Events = append(res.Events, Event{At: t, Km: km,
					Kind: Horizontal, From: active, To: active})
			}
		case TechNSA5G, TechSA5G:
			if nrHO {
				res.Horizontal++
				res.Events = append(res.Events, Event{At: t, Km: km,
					Kind: Horizontal, From: active, To: active})
			}
		}

		km += speedKph(t) / 3600 * driveStep
		t += driveStep
	}
	res.Segments = append(res.Segments, Segment{Start: segStart, End: t, Tech: active})
	res.DurationS = t
	return res
}

// DriveCampaign drives the route n times (the paper: 2x per direction) and
// returns per-run results.
func DriveCampaign(cfg BandConfig, runs int, seed int64) []Result {
	out := make([]Result, 0, runs)
	for i := 0; i < runs; i++ {
		out = append(out, Drive(cfg, seed+int64(i)*1000))
	}
	return out
}
