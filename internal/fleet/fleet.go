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
//     its own state, and its own stream; a shard writes only its own range
//     of the results slice.
//  3. All aggregation happens in one serial reduce over the results slice,
//     in UE id order, after every shard joins: the chunk and event counts,
//     the obs metrics and the trace sample all derive from it, and a shard
//     keeps nothing else. That is the battery's rule of folding results in
//     a fixed order, never completion order.
package fleet

import (
	"fmt"
	"runtime"
	"sync"

	"fivegsim/internal/obs"
	"fivegsim/internal/stats"
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
// to its actual value (Shards excepted: Run resolves 0 to GOMAXPROCS, since
// the resolved value is host-dependent and — by the determinism contract —
// cannot affect campaign output). Canonical scenario keys (internal/serve)
// are built from the defaulted config so "window omitted" and "window 600"
// cache as the same campaign.
func (c Config) Defaulted() Config {
	if c.WindowS == 0 {
		c.WindowS = 600
	}
	if c.SessionS == 0 {
		c.SessionS = 32
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

// The campaign's population metrics, in FleetTable's row order.
const (
	metricTput = iota
	metricQoE
	metricEnergy
	metricStall
	// NumMetrics is the number of population metrics; MetricLabel and
	// Result.Column take an index below it.
	NumMetrics
)

// metrics declares each population metric once: the obs histogram the
// reduce folds it into, its FleetTable label, and the histogram's bucket
// bounds.
var metrics = [NumMetrics]struct {
	hist, label string
	bounds      []float64
}{
	metricTput:   {"fleet.tput_mbps", "tput Mbps", []float64{1, 2, 5, 10, 20, 50, 100, 200, 400, 800, 1600}},
	metricQoE:    {"fleet.qoe", "QoE/chunk", []float64{-40, -10, 0, 5, 10, 20, 40, 80, 160}},
	metricEnergy: {"fleet.energy_j", "energy J", []float64{5, 10, 20, 40, 80, 160, 320}},
	metricStall:  {"fleet.stall_s", "stall s", []float64{0.1, 0.5, 1, 2, 5, 10, 30, 60}},
}

// MetricLabel returns population metric i's table label.
func MetricLabel(i int) string { return metrics[i].label }

// metric returns the UE's value of population metric i.
func (u *UEResult) metric(i int) float64 {
	switch i {
	case metricTput:
		return u.MeanMbps
	case metricQoE:
		return u.QoE
	case metricEnergy:
		return u.EnergyJ
	}
	return u.StallS
}

// Result is a completed campaign: every UE's result and the campaign's
// counts.
type Result struct {
	Cfg Config
	UEs []UEResult // indexed by UE id
	// Events counts simulation events: per session, one per chunk (chunk
	// 0 shares the admission event), one for the end of the RRC tail, and
	// one for the end of any cascade. It does not depend on the partition.
	Events uint64
	// chunks and nrChunks count every session's chunks and NR-served
	// chunks.
	chunks, nrChunks int64
}

// NRShare returns the fraction of chunks served over an NR layer.
func (r *Result) NRShare() float64 {
	if r.chunks == 0 {
		return 0
	}
	return float64(r.nrChunks) / float64(r.chunks)
}

// Column returns population metric i as FleetTable renders it: every UE's
// value, filled into buf (grown as needed) and sorted with sorter, which
// the percentiles are read from, and their mean.
func (r *Result) Column(i int, buf []float64, sorter *stats.RadixSorter) (sorted []float64, mean float64) {
	if cap(buf) < len(r.UEs) {
		buf = make([]float64, len(r.UEs))
	}
	buf = buf[:len(r.UEs)]
	for j := range r.UEs {
		buf[j] = r.UEs[j].metric(i)
	}
	sorter.Sort(buf)
	return buf, stats.Mean(buf)
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
// then reduce serially. It fails before any shard starts when the campaign
// cannot be built — a config that Validate rejects, an unknown mix, or a
// deployment layer whose (device, band-class) pair has no measured power
// curve.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Defaulted()
	dep, err := newDeployment(cfg.Mix)
	if err != nil {
		return nil, err
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	results := make([]UEResult, cfg.UEs)
	var wg sync.WaitGroup
	for _, rg := range Partition(cfg.UEs, shards) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A shard writes results[rg.Lo:rg.Hi] and nothing else.
			newShard(cfg, dep, results).run(rg.Lo, rg.Hi)
		}()
	}
	wg.Wait()
	res := &Result{Cfg: cfg, UEs: results}
	if err := reduce(cfg, dep, res); err != nil {
		return nil, fmt.Errorf("fleet: trace spill: %w", err)
	}
	return res, nil
}

// reduce is the campaign's one pass over its results, in UE id order, once
// every shard has joined. It counts the chunks and events, folds the
// population metrics into Obs, and hands every TraceEvery-th UE's session
// record, from UE 0, to the one trace sink: the Spill when set, Obs's
// tracer otherwise. Shard boundaries
// are invisible here, so no count, metric or record can depend on the
// shard count; the histogram and stall sums add floats one UE at a time in
// UE id order. Only a Spill write can fail.
func reduce(cfg Config, dep *deployment, res *Result) error {
	// Per session, one event per chunk (chunk 0 shares the admission
	// event), one for the end of the RRC tail and one for the end of any
	// cascade.
	perUE := uint64(1)
	if dep.hasCascade {
		perUE++
	}
	on := cfg.Obs.Enabled()
	m := cfg.Obs.Meter()
	var hists [NumMetrics]*obs.Histogram
	for i := range hists {
		hists[i] = m.Hist(metrics[i].hist, metrics[i].bounds)
	}
	sp, tr := cfg.Spill, cfg.Obs.Trace()
	next := len(res.UEs) // the next trace-sampled UE; none when nothing traces
	if sp != nil || on {
		next = 0
	}
	for ue := range res.UEs {
		u := &res.UEs[ue]
		res.Events += uint64(u.Chunks) + perUE
		res.chunks += int64(u.Chunks)
		res.nrChunks += int64(u.NRChunks)
		if on {
			for i, h := range hists {
				h.Observe(u.metric(i))
			}
			m.Add("fleet.stall_s_total", u.StallS)
		}
		if ue == next {
			next += cfg.TraceEvery
			if sp == nil {
				tr.Emit(sessionRecord(ue, u, nil))
			} else if err := sp.add(sessionRecord(ue, u, cfg.SpillTags)); err != nil {
				return err
			}
		}
	}
	// The chunk counters are integers, summed exactly as int64 and added
	// once. res.Events is deliberately NOT folded into obs: it is run
	// accounting for -stats, not a campaign result, and folding it in would
	// change every metrics artifact.
	m.Add("fleet.chunks", float64(res.chunks))
	m.Add("fleet.nr_chunks", float64(res.nrChunks))
	m.Add("fleet.ues", float64(cfg.UEs))
	if sp == nil {
		return nil
	}
	return sp.endCampaign()
}
