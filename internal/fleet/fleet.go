// Package fleet runs city-scale population campaigns: 100k-1M UEs
// streaming over a shared tower deployment, partitioned across N
// independent shards (default one per core).
//
// Each shard owns a contiguous UE id range and simulates it one session at
// a time, in UE id order (see shard.go). A session's RRC, CUBIC transport,
// ABR buffer and power state is one stack-local struct that advances its
// own clock from arrival to idle; no calendar interleaves sessions, because
// nothing a session computes depends on another session.
//
// Determinism contract: campaign output — tables, CDFs, and obs artifacts —
// is byte-identical at any shard count, including 1. Three rules make that
// hold by construction:
//
//  1. Per-UE randomness derives from (campaignSeed, ueID) only (rng.go).
//  2. UEs never interact: a session reads the shared read-only deployment,
//     its own state, and its own stream; shards write disjoint ranges of
//     one results slice, indexed by global UE id.
//  3. All aggregation happens in a serial reduce over the results slice in
//     UE id order after every shard joins — the battery's rule of folding
//     results in a fixed order, never completion order, with the UE id as
//     the fold order.
package fleet

import (
	"fmt"
	"runtime"
	"sync"

	"fivegsim/internal/obs"
)

// Config parameterises a campaign.
type Config struct {
	// Seed drives all randomness, via UESeed(Seed, ueID).
	Seed int64
	// UEs is the population size.
	UEs int
	// Shards is the number of parallel shards; <= 0 means GOMAXPROCS.
	// Output does not depend on it.
	Shards int
	// Mix selects the tower deployment (see Mix).
	Mix Mix
	// WindowS is the arrival window: session starts are uniform over
	// [0, WindowS). 0 means 600 (a ten-minute city hour).
	WindowS float64
	// SessionS is the video length per UE. 0 means 32.
	SessionS float64
	// Obs, when enabled, receives population CDF histograms, campaign
	// counters, and sampled per-session trace records from the reduce.
	// It never changes the tables, and shard count never changes its
	// bytes. nil costs nothing.
	Obs *obs.Obs
	// TraceEvery samples every k-th UE for a per-session trace record;
	// 0 derives a stride targeting ~512 records per campaign.
	TraceEvery int
	// Stream, when true, drops the O(UEs) results slice: each shard folds
	// its sessions into a ShardStats as they finish, so the campaign keeps
	// O(shards) state — per shard, one running session and its stats (see
	// stream.go). Result.UEs is nil and Result.Stream holds the merged
	// stats; the trace artifact is byte-identical to exact mode, and all
	// obs artifacts remain byte-identical across shard counts.
	Stream bool
	// SketchK is the per-metric quantile sketch size in stream mode;
	// 0 means DefaultSketchK.
	SketchK int
	// Spill, when non-nil, receives the sampled per-session trace records
	// instead of Obs's tracer: Run encodes them into the spill's artifact
	// writer once the shards join (see Spill). Metrics and histograms
	// still flow through Obs. The artifact bytes are identical, at any
	// shard count, to rendering the tracer's records after the campaign.
	Spill *Spill
	// SpillTags are appended to every spilled record, in order — the
	// counterpart of the MergeTagged tags of the central pipeline (e.g.
	// the mix tag fgfleet attaches per campaign).
	SpillTags []obs.Field
}

// Defaulted returns the config with every zero-means-default knob resolved
// to its actual value (Shards excepted: it stays 0 for GOMAXPROCS, since the
// resolved value is host-dependent and — by the determinism contract —
// cannot affect campaign output). Canonical scenario keys (internal/serve)
// are built from the defaulted config so "window omitted" and "window 600"
// cache as the same campaign.
func (c Config) Defaulted() Config {
	shards := c.Shards
	c = c.withDefaults()
	c.Shards = shards
	return c
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.WindowS == 0 {
		c.WindowS = 600
	}
	if c.SessionS == 0 {
		c.SessionS = 32
	}
	if c.SketchK == 0 {
		c.SketchK = DefaultSketchK
	}
	if c.TraceEvery == 0 {
		// A stride targeting ~512 sampled sessions per campaign.
		c.TraceEvery = c.UEs/512 + 1
	}
	return c
}

// UEResult is one UE's session summary, written by its owning shard at
// results[ueID] and read only after all shards join.
type UEResult struct {
	ArrivalS  float64 // session start (sim time)
	DurationS float64 // arrival through return to idle
	MeanMbps  float64 // goodput while transferring
	QoE       float64 // per-chunk QoE (bitrate - switch - rebuffer terms)
	StallS    float64
	StartupS  float64
	EnergyJ   float64 // radio energy, promotion through idle
	Chunks    int32
	NRChunks  int32 // chunks served over an NR layer (vs LTE fallback)
}

// Result is a completed campaign. Exactly one of UEs and Stream is
// populated: per-UE results in exact mode, merged streaming stats in
// stream mode.
type Result struct {
	Cfg    Config
	UEs    []UEResult  // indexed by UE id; nil in stream mode
	Stream *ShardStats // merged streaming stats; nil in exact mode
	// Events counts simulation events: per session, one per chunk (chunk
	// 0 shares the admission event), one for the end of the RRC tail, and
	// one for the end of any cascade. It does not depend on the partition.
	Events uint64
}

// NRShare returns the fraction of chunks served over an NR layer.
func (r *Result) NRShare() float64 {
	var nr, total int64
	for _, u := range r.UEs {
		nr += int64(u.NRChunks)
		total += int64(u.Chunks)
	}
	if total == 0 {
		return 0
	}
	return float64(nr) / float64(total)
}

// Range is a contiguous UE id interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Partition splits n UEs into the given number of contiguous ranges with
// sizes differing by at most one (the first n%shards ranges get the extra
// UE). Empty ranges are dropped, so shards > n is safe: it yields n ranges
// of one UE, and the work stays O(n) however large shards is.
func Partition(n, shards int) []Range {
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	base, rem := n/shards, n%shards
	out := make([]Range, 0, shards)
	lo := 0
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// Run executes a campaign: fan the population out over shards, join,
// then reduce serially in UE id order. It fails before any shard starts when
// the campaign cannot be built — a config that Validate rejects, an unknown
// mix, or a deployment layer whose (device, band-class) pair has no measured
// power curve.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	dep, err := newDeployment(cfg.Mix)
	if err != nil {
		return nil, err
	}
	var results []UEResult
	var shardStats []*ShardStats
	ranges := Partition(cfg.UEs, cfg.Shards)
	if cfg.Stream {
		// O(shards) memory: no results slice, one ShardStats per shard.
		shardStats = make([]*ShardStats, len(ranges))
		for si := range shardStats {
			shardStats[si] = newShardStats(cfg)
		}
	} else {
		results = make([]UEResult, cfg.UEs)
	}
	tracing := cfg.Spill != nil || cfg.Obs.Enabled()
	samples := make([][]sessionSample, len(ranges))
	events := make([]uint64, len(ranges))
	var wg sync.WaitGroup
	for si, rg := range ranges {
		wg.Add(1)
		go func(si int, rg Range) {
			defer wg.Done()
			// Shards touch only results[rg.Lo:rg.Hi] (exact mode) or
			// their private shardStats[si] (stream mode).
			sh := newShard(cfg, dep, results)
			if cfg.Stream {
				sh.stats = shardStats[si]
			}
			sh.run(rg.Lo, rg.Hi)
			events[si] = sh.events
			if tracing {
				samples[si] = sh.samples(rg, cfg.TraceEvery)
			}
		}(si, rg)
	}
	wg.Wait()
	if err := traceSamples(cfg, samples); err != nil {
		return nil, fmt.Errorf("fleet: trace spill: %w", err)
	}
	res := &Result{Cfg: cfg, UEs: results}
	for _, e := range events {
		res.Events += e
	}
	if cfg.Stream {
		// Merge in shard order. The order is fixed for determinism's
		// sake, but nothing depends on it: every merged component is
		// order-invariant (see stream.go).
		merged := newShardStats(cfg)
		for _, st := range shardStats {
			if err := merged.merge(st); err != nil {
				// Unreachable: all shard sketches share cfg-derived
				// geometry. Fail loudly rather than drop a shard.
				panic(err)
			}
		}
		res.Stream = merged
		streamReduce(cfg, res)
		return res, nil
	}
	reduce(cfg, res)
	return res, nil
}

// traceSamples hands the campaign's sampled sessions, one sorted slice per
// shard in shard order, to its one trace sink: the Spill when set, Obs's
// tracer otherwise. Shards own ascending UE id ranges, so the records
// leave in UE id order at any shard count, in exact and stream mode alike.
// Only a Spill write can fail.
func traceSamples(cfg Config, samples [][]sessionSample) error {
	sp := cfg.Spill
	tr := cfg.Obs.Trace()
	for _, ss := range samples {
		for i := range ss {
			if sp == nil {
				tr.Emit(sessionRecord(ss[i].ue, &ss[i].u, nil))
			} else if err := sp.add(sessionRecord(ss[i].ue, &ss[i].u, cfg.SpillTags)); err != nil {
				return err
			}
		}
	}
	if sp == nil {
		return nil
	}
	return sp.endCampaign()
}

// Population histogram bounds for the obs CDFs.
var (
	tputBounds   = []float64{1, 2, 5, 10, 20, 50, 100, 200, 400, 800, 1600}
	qoeBounds    = []float64{-40, -10, 0, 5, 10, 20, 40, 80, 160}
	energyBounds = []float64{5, 10, 20, 40, 80, 160, 320}
	stallBounds  = []float64{0.1, 0.5, 1, 2, 5, 10, 30, 60}
)

// reduce folds the campaign into the obs collector, strictly in UE id
// order. Shard boundaries are invisible here: every observation and
// counter depends only on (ueID, results[ueID]), so the artifact bytes
// cannot depend on the shard count.
func reduce(cfg Config, res *Result) {
	if !cfg.Obs.Enabled() {
		return
	}
	m := cfg.Obs.Meter()
	tputH := m.Hist("fleet.tput_mbps", tputBounds)
	qoeH := m.Hist("fleet.qoe", qoeBounds)
	energyH := m.Hist("fleet.energy_j", energyBounds)
	stallH := m.Hist("fleet.stall_s", stallBounds)
	// The chunk counters are integers, summed exactly as int64 and added
	// once (a float sum of integers below 2^53 is exact too, so the value
	// is the same). The stall total is a float sum whose order is part of
	// the bytes, so it stays one add per UE in id order.
	var chunks, nrChunks int64
	for _, u := range res.UEs {
		tputH.Observe(u.MeanMbps)
		qoeH.Observe(u.QoE)
		energyH.Observe(u.EnergyJ)
		stallH.Observe(u.StallS)
		chunks += int64(u.Chunks)
		nrChunks += int64(u.NRChunks)
		m.Add("fleet.stall_s_total", u.StallS)
	}
	m.Add("fleet.chunks", float64(chunks))
	m.Add("fleet.nr_chunks", float64(nrChunks))
	// Note: res.Events is deliberately NOT folded into obs: it is run
	// accounting for -stats, not a campaign result, and folding it in
	// would change every metrics artifact.
	m.Add("fleet.ues", float64(len(res.UEs)))
}
