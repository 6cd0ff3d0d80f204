package experiments

import (
	"context"
	"fmt"
	"time"

	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
	"fivegsim/internal/stats"
)

func init() { register("fleet", fleetExp) }

// fleetQuick/fleetFull size the per-mix population of the battery's fleet
// experiment. The CLI (cmd/fgfleet) and BenchmarkFleet* run the 100k+
// campaigns; the battery keeps the experiment in the same wall-clock class
// as the large figure experiments.
const (
	fleetQuickUEs = 900
	fleetFullUEs  = 24000
)

// fleetExp is the population experiment: city-wide QoE, power, and
// throughput CDFs by band mix (low-band blanket vs mmWave small cells vs
// mixed), the operator-strategy comparison that ERRANT-style population
// profiles motivate. One campaign per mix; shard count follows GOMAXPROCS
// and — by the fleet determinism contract — cannot affect a byte of this
// table or of the merged obs artifacts.
func fleetExp(cfg Config) []*Table {
	base := fleet.Config{Seed: cfg.Seed, UEs: cfg.pick(fleetQuickUEs, fleetFullUEs)}
	rs, _, err := RunFleet(context.Background(), base, fleet.AllMixes, cfg.Obs)
	if err != nil {
		// Unreachable for the built-in mixes: every layer's power curve
		// is validated by fleet's own tests. Fail the battery loudly.
		panic(err)
	}
	return []*Table{FleetTable(rs)}
}

// RunFleet runs one campaign of base per mix, in order: the campaign loop
// behind fgfleet, fgservd's fleet scenarios, and the battery's fleet
// experiment. Each campaign collects into its own obs.Sub of o, merged
// back tagged with its mix; when base.Spill is set, the spilled records
// carry the same tag, so both trace paths render the same bytes. ctx is
// checked before each campaign and after the last, and a canceled run
// returns ctx's error instead of partial results. Besides the results,
// RunFleet returns each campaign's host wall time for -stats; no artifact
// reads it.
func RunFleet(ctx context.Context, base fleet.Config, mixes []fleet.Mix, o *obs.Obs) ([]*fleet.Result, []time.Duration, error) {
	rs := make([]*fleet.Result, 0, len(mixes))
	walls := make([]time.Duration, 0, len(mixes))
	for _, mix := range mixes {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("experiments: fleet campaigns canceled: %w", err)
		}
		tag := obs.S("mix", mix.String())
		cfg := base
		cfg.Mix = mix
		cfg.Obs = obs.Sub(o)
		if cfg.Spill != nil {
			cfg.SpillTags = []obs.Field{tag}
		}
		start := time.Now() //fgvet:allow walltime per-campaign wall-clock stats for -stats, never sim time or an artifact
		r, err := fleet.Run(cfg)
		if err != nil {
			return nil, nil, err
		}
		walls = append(walls, time.Since(start)) //fgvet:allow walltime per-campaign wall-clock stats for -stats, never sim time or an artifact
		o.MergeTagged(cfg.Obs, tag)
		rs = append(rs, r)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("experiments: fleet campaigns canceled: %w", err)
	}
	return rs, walls, nil
}

// FleetTable renders campaign results as population CDF rows (one row per
// mix and metric). Shared by the battery experiment, the scenario runner
// behind fgfleet and fgservd, and the byte-identity tests, so "the table"
// means the same bytes everywhere. Each row reads its sorted values and
// mean from Result.Column, through one reused column buffer and one radix
// sorter.
func FleetTable(rs []*fleet.Result) *Table {
	t := &Table{
		ID:     "fleet",
		Title:  "City-scale population campaign: QoE/power/throughput CDFs by band mix",
		Header: []string{"mix", "metric", "p5", "p25", "p50", "p75", "p95", "mean"},
	}
	var col []float64
	var sorter stats.RadixSorter
	for _, r := range rs {
		mix := r.Cfg.Mix.String()
		for i := 0; i < fleet.NumMetrics; i++ {
			metric := fleet.MetricLabel(i)
			var mean float64
			col, mean = r.Column(i, col, &sorter)
			mustFinite("fleet "+mix+" "+metric, col)
			t.AddRow(mix, metric,
				f1(stats.PercentileSorted(col, 5)),
				f1(stats.PercentileSorted(col, 25)),
				f1(stats.PercentileSorted(col, 50)),
				f1(stats.PercentileSorted(col, 75)),
				f1(stats.PercentileSorted(col, 95)),
				f1(mean))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: %d UEs, %s of chunks on NR",
			mix, r.Cfg.UEs, pct(100*r.NRShare())))
	}
	return t
}
