package fleet

import (
	"runtime"
	"strconv"
	"testing"
)

// BenchmarkFleetCampaign measures end-to-end campaign throughput in UEs/sec
// (admission through reduce), the headline number for the 100k-1M scale
// story. Shards=1 keeps the number comparable across machines; the identity
// tests guarantee sharding only divides the wall clock, never the work.
func BenchmarkFleetCampaign(b *testing.B) {
	const ues = 8192
	cfg := Config{Seed: 1, UEs: ues, Shards: 1, Mix: MixMixed}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ues)*float64(b.N)/b.Elapsed().Seconds(), "UEs/s")
}

// BenchmarkFleetStreamCampaign is BenchmarkFleetCampaign in stream mode:
// same simulated work, but campaign memory is O(shards) (histogram
// shadows, bounded sketches, ~512 sampled sessions) instead of an O(UEs)
// results slice. The bytes/UE metric prices the retained reduction state
// per simulated session.
func BenchmarkFleetStreamCampaign(b *testing.B) {
	const ues = 8192
	cfg := Config{Seed: 1, UEs: ues, Shards: 1, Mix: MixMixed, Stream: true}
	b.ReportAllocs()
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ues)*float64(b.N)/b.Elapsed().Seconds(), "UEs/s")
	retained := res.Stream.skTput.Len()*24*4 + len(res.Stream.sampled)*72 +
		4*(len(tputBounds)+len(qoeBounds)+len(energyBounds)+len(stallBounds))*8
	b.ReportMetric(float64(retained)/float64(ues), "retained_B/UE")
}

// benchShardCounts returns the shard counts the scaling benchmarks sweep:
// 1 (the serial baseline), 4, and GOMAXPROCS when it differs from both.
// Identity tests guarantee the output is the same at every count, so the
// sweep measures pure wall-clock scaling.
func benchShardCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// BenchmarkFleetCampaignShards is BenchmarkFleetCampaign swept over shard
// counts: same campaign, same bytes, divided across parallel engine
// shards. ues_per_s across the sweep gives the parallel scaling
// efficiency (bench.sh derives it into BENCH_6.json).
func BenchmarkFleetCampaignShards(b *testing.B) {
	const ues = 8192
	for _, shards := range benchShardCounts() {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			cfg := Config{Seed: 1, UEs: ues, Shards: shards, Mix: MixMixed}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ues)*float64(b.N)/b.Elapsed().Seconds(), "UEs/s")
		})
	}
}

// BenchmarkFleetStreamCampaignShards is the stream-mode shard sweep.
func BenchmarkFleetStreamCampaignShards(b *testing.B) {
	const ues = 8192
	for _, shards := range benchShardCounts() {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			cfg := Config{Seed: 1, UEs: ues, Shards: shards, Mix: MixMixed, Stream: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ues)*float64(b.N)/b.Elapsed().Seconds(), "UEs/s")
		})
	}
}

// steadyShard builds a shard at fleet fan-in size, admits the whole
// population, and steps past the warm-up so slab, freelist, calendar, and
// per-UE transport state are all at steady state: every further Step is one
// chunk fetch recycling pre-allocated storage.
func steadyShard(cfg Config) *shard {
	cfg = cfg.withDefaults()
	dep, err := newDeployment(cfg.Mix)
	if err != nil {
		panic(err)
	}
	results := make([]UEResult, cfg.UEs)
	sh := newShard(cfg, dep, 0, cfg.UEs, results)
	sh.prepare()
	for sh.next < len(sh.arrivals) {
		if !sh.eng.Step() {
			panic("fleet: calendar drained before all arrivals admitted")
		}
	}
	for i := 0; i < 4*cfg.UEs; i++ {
		sh.eng.Step()
	}
	return sh
}

// BenchmarkFleetSteadyStep is the per-UE stepping hot path in isolation:
// one calendar event = one chunk fetch (channel, RRC gap, ABR, CUBIC-lite
// ladder, energy). Sessions are effectively endless so no UE finalizes
// during measurement. This must report 0 allocs/op — the struct-of-arrays
// slab invariant; TestSteadyStepZeroAlloc enforces the same bound red/green.
func BenchmarkFleetSteadyStep(b *testing.B) {
	for _, ues := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(sizeName(ues), func(b *testing.B) {
			sh := steadyShard(Config{
				Seed: 1, UEs: ues, WindowS: 1, SessionS: 1e8, Mix: MixMixed,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sh.eng.Step() {
					b.Fatal("calendar drained")
				}
			}
		})
	}
}

func sizeName(n int) string {
	if n >= 1<<10 {
		return strconv.Itoa(n>>10) + "Ki"
	}
	return strconv.Itoa(n)
}

// TestSteadyStepZeroAlloc is the red/green form of BenchmarkFleetSteadyStep:
// steady-state stepping must not allocate. Any new per-chunk allocation in
// the stream phase (a closure, a boxed value, a growing slice) fails here
// before it shows up as a benchmark regression.
func TestSteadyStepZeroAlloc(t *testing.T) {
	sh := steadyShard(Config{
		Seed: 1, UEs: 2048, WindowS: 1, SessionS: 1e8, Mix: MixMixed,
	})
	if avg := testing.AllocsPerRun(5000, func() { sh.eng.Step() }); avg != 0 {
		t.Errorf("steady-state step allocates %.3f objects/op, want 0", avg)
	}
}
