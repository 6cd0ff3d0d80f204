package fleet

import (
	"math"
	"testing"
)

func TestPartition(t *testing.T) {
	cases := []struct{ n, shards int }{
		{0, 4}, {1, 4}, {7, 1}, {8, 4}, {403, 7}, {1003, 4}, {5, 9},
		{10, math.MaxInt},
	}
	for _, c := range cases {
		rs := Partition(c.n, c.shards)
		total, lo := 0, 0
		for _, r := range rs {
			if r.Lo != lo {
				t.Errorf("Partition(%d,%d): range starts at %d, want contiguous %d", c.n, c.shards, r.Lo, lo)
			}
			if r.Hi <= r.Lo {
				t.Errorf("Partition(%d,%d): empty or inverted range %+v", c.n, c.shards, r)
			}
			total += r.Hi - r.Lo
			lo = r.Hi
		}
		if total != c.n {
			t.Errorf("Partition(%d,%d): covers %d UEs", c.n, c.shards, total)
		}
		// Balance: sizes differ by at most one.
		if len(rs) > 0 {
			min, max := c.n, 0
			for _, r := range rs {
				if s := r.Hi - r.Lo; s < min {
					min = s
				} else if s > max {
					max = s
				}
			}
			if max != 0 && max-min > 1 {
				t.Errorf("Partition(%d,%d): unbalanced sizes [%d,%d]", c.n, c.shards, min, max)
			}
		}
	}
}

func TestUESeedDerivation(t *testing.T) {
	// Stable and distinct: the stream state is a pure function of
	// (campaignSeed, ueID), and neighbours do not collide.
	if UESeed(1, 7) != UESeed(1, 7) {
		t.Fatal("UESeed is not deterministic")
	}
	seen := map[uint64]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		for ue := uint64(0); ue < 1000; ue++ {
			s := UESeed(seed, ue)
			if seen[s] {
				t.Fatalf("UESeed collision at seed=%d ue=%d", seed, ue)
			}
			seen[s] = true
		}
	}
	// The arrival stream is independent of the session stream.
	if UESeed(1, 7) == arrivalSeed(1, 7) {
		t.Fatal("arrival stream state equals session stream state")
	}
}

func TestRNGUniformAndNormalShape(t *testing.T) {
	s := UESeed(9, 0)
	n := 20000
	sumU, sumN, sumN2 := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		u := rngU01(&s)
		if u < 0 || u >= 1 {
			t.Fatalf("rngU01 out of range: %v", u)
		}
		sumU += u
		x := rngNorm(&s)
		sumN += x
		sumN2 += x * x
	}
	if m := sumU / float64(n); math.Abs(m-0.5) > 0.02 {
		t.Errorf("uniform mean = %v, want ~0.5", m)
	}
	if m := sumN / float64(n); math.Abs(m) > 0.05 {
		t.Errorf("normal mean = %v, want ~0", m)
	}
	if v := sumN2 / float64(n); math.Abs(v-1) > 0.1 {
		t.Errorf("normal variance = %v, want ~1", v)
	}
}

// TestSlabRecycling pins the slab's memory contract: with arrivals spread
// over a window much longer than a session, slots are recycled through the
// freelist and the slab tops out near peak concurrency, far below the UE
// count.
func TestSlabRecycling(t *testing.T) {
	cfg := Config{Seed: 3, UEs: 600, Shards: 1, WindowS: 900, SessionS: 24}.withDefaults()
	dep, err := newDeployment(MixLowBand)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]UEResult, cfg.UEs)
	sh := newShard(cfg, dep, 0, cfg.UEs, results)
	sh.run()
	if got := sh.slab.len(); got >= cfg.UEs/2 {
		t.Errorf("slab grew to %d slots for %d UEs; freelist recycling is not working", got, cfg.UEs)
	}
	if live := sh.slab.len() - len(sh.slab.free); live != 0 {
		t.Errorf("%d slots still live after the shard drained", live)
	}
	for ue, r := range results {
		if r.Chunks == 0 || r.DurationS <= 0 || r.EnergyJ <= 0 {
			t.Fatalf("UE %d: incomplete result %+v", ue, r)
		}
	}
}

// TestSlabSlotReuseKeepsClosure verifies a recycled slot reuses its
// pre-allocated step closure (the 0-alloc admission invariant).
func TestSlabSlotReuseKeepsClosure(t *testing.T) {
	var s slab
	// Closures capture sh and the index only; the empty deployment gives the
	// radio cache a zero-layer stride.
	sh := &shard{dep: &deployment{}}
	a := s.alloc(sh)
	b := s.alloc(sh)
	if a == b {
		t.Fatal("distinct allocs share a slot")
	}
	grown := s.len()
	s.release(a)
	c := s.alloc(sh)
	if c != a {
		t.Errorf("freelist did not recycle slot %d (got %d)", a, c)
	}
	if s.len() != grown {
		t.Errorf("slab grew on recycled alloc: %d -> %d slots", grown, s.len())
	}
}

// TestResultsWellFormed runs a small campaign per mix and sanity-checks
// every UE result.
func TestResultsWellFormed(t *testing.T) {
	for _, mix := range AllMixes {
		r, err := Run(Config{Seed: 1, UEs: 200, Shards: 2, Mix: mix, WindowS: 60})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.UEs) != 200 {
			t.Fatalf("%v: %d results", mix, len(r.UEs))
		}
		if r.Events == 0 {
			t.Errorf("%v: no events counted", mix)
		}
		for ue, u := range r.UEs {
			bad := u.Chunks != 8 || u.DurationS <= 0 || u.EnergyJ <= 0 ||
				u.MeanMbps <= 0 || u.StartupS <= 0 || u.StallS < 0 ||
				u.NRChunks < 0 || u.NRChunks > u.Chunks
			if bad || math.IsNaN(u.QoE) || math.IsInf(u.QoE, 0) {
				t.Fatalf("%v UE %d: malformed result %+v", mix, ue, u)
			}
		}
	}
}

// TestMixesReproducePaperOrdering pins the qualitative §3/§4 story at
// population scale: mmWave delivers much higher throughput than the
// low-band blanket but costs more energy; the mixed deployment sits
// between them on throughput.
func TestMixesReproducePaperOrdering(t *testing.T) {
	med := func(mix Mix) (tput, energy float64) {
		r, err := Run(Config{Seed: 1, UEs: 400, Mix: mix, WindowS: 120})
		if err != nil {
			t.Fatal(err)
		}
		ts := r.ThroughputsMbps()
		es := r.EnergiesJ()
		return median(ts), median(es)
	}
	lowT, lowE := med(MixLowBand)
	mmT, mmE := med(MixMmWave)
	mixT, _ := med(MixMixed)
	if mmT < 2*lowT {
		t.Errorf("mmWave median tput %.0f not >> low-band %.0f", mmT, lowT)
	}
	if mmE <= lowE {
		t.Errorf("mmWave median energy %.1f J not above low-band %.1f J", mmE, lowE)
	}
	if mixT <= lowT || mixT >= mmT {
		t.Errorf("mixed median tput %.0f not between low-band %.0f and mmWave %.0f", mixT, lowT, mmT)
	}
}

func median(xs []float64) float64 {
	// Simple order-statistic helper local to the test (avoids importing
	// stats into the fleet package itself).
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}
