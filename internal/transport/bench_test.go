package transport

import (
	"math/rand"
	"testing"

	"fivegsim/internal/obs"
)

// mmwavePath is a representative tuned mmWave path: high capacity, moderate
// RTT, radio-driven loss episodes — the regime where the cwnd/BDP race and
// loss events both matter.
var mmwavePath = PathParams{
	CapacityMbps:  1800,
	RTTSeconds:    0.028,
	LossRate:      0.0001,
	LossEventRate: 0.3,
}

// BenchmarkSimulateTCP is the tracing-disabled-overhead benchmark: the
// observability hooks are present in the loop but Obs is nil, so allocs/op
// must stay at the pre-obs baseline (slab slices only, no per-RTT allocs).
func BenchmarkSimulateTCP(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	opt := TCPOptions{Flows: 16, WmemBytes: TunedWmemBytes}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateTCP(mmwavePath, opt, rng)
	}
}

// BenchmarkSimulateTCPObs is the same run with collection enabled, for
// measuring the enabled-path cost.
func BenchmarkSimulateTCPObs(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := TCPOptions{Flows: 16, WmemBytes: TunedWmemBytes, Obs: obs.New()}
		SimulateTCP(mmwavePath, opt, rng)
	}
}

// TestDisabledObsLoopAllocFree pins the nil-Obs contract for both
// simulators: their allocations are the setup slices (flows, desired, the
// RTT split, per-second buckets), independent of how many RTT iterations
// run. If the loop ever allocates per RTT (an obs hook on the disabled
// path, a per-RTT buffer), the longer run allocates more and this fails.
func TestDisabledObsLoopAllocFree(t *testing.T) {
	sims := []struct {
		name string
		run  func(PathParams, TCPOptions, *rand.Rand) Result
	}{{"SimulateTCP", SimulateTCP}, {"SimulateBBR", SimulateBBR}}
	for _, sim := range sims {
		rng := rand.New(rand.NewSource(3))
		run := func(durS float64) float64 {
			opt := TCPOptions{Flows: 8, WmemBytes: TunedWmemBytes, DurationS: durS}
			return testing.AllocsPerRun(50, func() {
				sim.run(mmwavePath, opt, rng)
			})
		}
		short, long := run(1), run(12)
		if short != long {
			t.Errorf("%s: allocs grow with duration: %v (1s) vs %v (12s) — the loop allocates per RTT",
				sim.name, short, long)
		}
	}
}
