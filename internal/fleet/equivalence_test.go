package fleet

import (
	"math"
	"testing"

	"fivegsim/internal/device"
	"fivegsim/internal/power"
	"fivegsim/internal/radio"
)

// TestServeCachedMatchesServe holds the flattened serving path to the
// reference implementation bit for bit: for every mix and a dense sweep of
// (position, shadow, blockage) inputs, serveCached over the admission-time
// base-RSRP cache must return the same layer pointer and the exact same
// rsrp/capacity floats as serve's full per-site scan.
func TestServeCachedMatchesServe(t *testing.T) {
	for _, mix := range AllMixes {
		d, err := newDeployment(mix)
		if err != nil {
			t.Fatal(err)
		}
		base := make([]float64, len(d.layers))
		rng := UESeed(42, uint64(mix))
		for trial := 0; trial < 20000; trial++ {
			km := 12 * rngU01(&rng)
			shadow := 3 * rngNorm(&rng)
			blocked := rngU01(&rng) < 0.3
			d.baseRSRP(km, base)
			wl, wr, wc := d.serve(km, shadow, blocked)
			gl, gr, gc := d.serveCached(base, shadow, blocked)
			if wl != gl || wr != gr || wc != gc {
				t.Fatalf("%v: serveCached(km=%v shadow=%v blocked=%v) = (%p %x %x), serve = (%p %x %x)",
					mix, km, shadow, blocked, gl, gr, gc, wl, wr, wc)
			}
		}
	}
}

// TestDLPowerMatchesRadioPowerMw holds the flattened downlink power curve to
// the ground-truth process bit for bit across every band class the fleet
// deploys, a grid of non-negative throughputs (the chunk kernel's domain:
// thr = sizeMb/dl > 0; at a negative DL rate RadioPowerMw switches to the
// uplink base power, which DLPower deliberately does not model), and the
// RSRP range including the 0 ("unknown signal") sentinel.
func TestDLPowerMatchesRadioPowerMw(t *testing.T) {
	classes := []radio.BandClass{radio.ClassLTE, radio.ClassLowBand, radio.ClassMmWave}
	for _, class := range classes {
		dlp, err := power.DLPowerFor(device.S20U, class)
		if err != nil {
			t.Fatal(err)
		}
		for dl := 0.0; dl <= 2000; dl += 7.3 {
			for rsrp := -150.0; rsrp <= 0; rsrp += 1.7 {
				want, err := power.RadioPowerMw(device.S20U, power.Activity{
					Class: class, DLMbps: dl, RSRPDbm: rsrp})
				if err != nil {
					t.Fatal(err)
				}
				if got := dlp.PowerMw(dl, rsrp); got != want {
					t.Fatalf("%v: PowerMw(%v, %v) = %x, RadioPowerMw = %x",
						class, dl, rsrp, got, want)
				}
			}
			want, err := power.RadioPowerMw(device.S20U, power.Activity{Class: class, DLMbps: dl})
			if err != nil {
				t.Fatal(err)
			}
			if got := dlp.PowerMw(dl, 0); got != want {
				t.Fatalf("%v: PowerMw(%v, 0) = %x, RadioPowerMw = %x", class, dl, got, want)
			}
		}
	}
}

// TestDLPowerForRejectsUnknownCurve: a class with no measured curve must fail
// at construction (the error fleet.Run surfaces), not at evaluation.
func TestDLPowerForRejectsUnknownCurve(t *testing.T) {
	if _, err := power.DLPowerFor(device.S20U, radio.BandClass(99)); err == nil {
		t.Fatal("DLPowerFor accepted a band class with no measured curve")
	}
}

// TestShadowInnovScaleExact pins the hoisted AR(1) innovation scale to the
// inline expression it replaced.
func TestShadowInnovScaleExact(t *testing.T) {
	if want := shadowSigmaDb * math.Sqrt(1-shadowRho*shadowRho); shadowInnovScale != want {
		t.Fatalf("shadowInnovScale = %x, inline expression = %x", shadowInnovScale, want)
	}
}
