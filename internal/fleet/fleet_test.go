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

// TestRunCompletesEverySession: with arrivals spread over a window much
// longer than a session, every UE still runs its session to the end.
func TestRunCompletesEverySession(t *testing.T) {
	r, err := Run(Config{Seed: 3, UEs: 600, Shards: 1, Mix: MixLowBand, WindowS: 900, SessionS: 24})
	if err != nil {
		t.Fatal(err)
	}
	for ue, u := range r.UEs {
		if u.Chunks == 0 || u.DurationS <= 0 || u.EnergyJ <= 0 {
			t.Fatalf("UE %d: incomplete result %+v", ue, u)
		}
	}
}

// TestEventCounts pins Result.Events, which -stats prints, to the per-mix
// counts of the per-shard event calendar the session loop replaced, at
// several shard counts. A 10 s session is not a multiple of the 4 s chunk,
// so it covers the chunk-count ceiling.
func TestEventCounts(t *testing.T) {
	cases := []struct {
		sessionS float64
		want     map[Mix]uint64
	}{
		{32, map[Mix]uint64{MixLowBand: 4030, MixMmWave: 3627, MixMixed: 4030}},
		{10, map[Mix]uint64{MixLowBand: 2015, MixMmWave: 1612, MixMixed: 2015}},
	}
	for _, c := range cases {
		for _, mix := range AllMixes {
			for _, shards := range []int{1, 3, 7} {
				r, err := Run(Config{Seed: 7, UEs: 403, Shards: shards, Mix: mix,
					WindowS: 60, SessionS: c.sessionS})
				if err != nil {
					t.Fatal(err)
				}
				if r.Events != c.want[mix] {
					t.Errorf("session %v s, %v, shards=%d: %d events, want %d",
						c.sessionS, mix, shards, r.Events, c.want[mix])
				}
			}
		}
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
		ts := make([]float64, len(r.UEs))
		es := make([]float64, len(r.UEs))
		for i, u := range r.UEs {
			ts[i], es[i] = u.MeanMbps, u.EnergyJ
		}
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
