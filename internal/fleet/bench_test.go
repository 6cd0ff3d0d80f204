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

// sessionShard builds a one-shard campaign of the given mix whose sessions
// can be run one at a time, exactly as Run drives them.
func sessionShard(mix Mix, ues int) *shard {
	cfg := Config{Seed: 1, UEs: ues, Mix: mix}.withDefaults()
	dep, err := newDeployment(cfg.Mix)
	if err != nil {
		panic(err)
	}
	return newShard(cfg, dep, make([]UEResult, cfg.UEs))
}

// BenchmarkFleetSession is the per-UE hot path in isolation: one op is one
// whole default session (arrival, eight chunk fetches through the channel,
// RRC gap, ABR, CUBIC-lite ladder and energy, then the RRC tail and any
// cascade) written to the results slice. It must report 0 allocs/op;
// TestSessionZeroAlloc enforces the same bound red/green.
func BenchmarkFleetSession(b *testing.B) {
	const ues = 1 << 10
	for _, mix := range AllMixes {
		b.Run(mix.String(), func(b *testing.B) {
			sh := sessionShard(mix, ues)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.session(i % ues)
			}
		})
	}
}

// TestSessionZeroAlloc is the red/green form of BenchmarkFleetSession: once
// the shard is built, a session must not allocate. Any new per-session or
// per-chunk allocation (a closure, a boxed value, a growing slice) fails
// here before it shows up as a benchmark regression.
func TestSessionZeroAlloc(t *testing.T) {
	const ues = 256
	for _, mix := range AllMixes {
		sh := sessionShard(mix, ues)
		ue := 0
		avg := testing.AllocsPerRun(ues-1, func() {
			sh.session(ue)
			ue++
		})
		if avg != 0 {
			t.Errorf("%v: a session allocates %.3f objects, want 0", mix, avg)
		}
	}
}
