package fleet_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"fivegsim/internal/experiments"
	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
	"fivegsim/internal/obs/colf"
)

var updateGolden = flag.Bool("update", false, "regenerate golden artifacts")

// goldenCampaign fixes one (seed, mix, UE-count) triple per mix. 403 UEs at
// seed 7 matches the ci.sh determinism gate; 3 shards exercises an uneven
// partition (403 = 3*134 + 1) without costing test time.
func goldenConfig(mix fleet.Mix) fleet.Config {
	return fleet.Config{Seed: 7, UEs: 403, Shards: 3, Mix: mix, WindowS: 60}
}

// largeGoldenConfig is the campaign ci.sh diffs across shard counts at
// 5000 UEs (seed 3, the default window). 5000 UEs is above the radix
// sorter's threshold, so the table's columns are radix-sorted as in every
// default fgfleet run, where the 403-UE goldens fall back to
// sort.Float64s; 3 shards is an uneven partition (5000 = 3*1666 + 2).
func largeGoldenConfig(mix fleet.Mix) fleet.Config {
	return fleet.Config{Seed: 3, UEs: 5000, Shards: 3, Mix: mix}
}

// goldenArtifacts renders everything one campaign emits — the population
// table verbatim, plus FNV-1a hashes of the JSONL trace, the colf trace,
// and the metrics CSV — as one comparable string. Hashes keep the pinned
// files small while still failing on any single byte of drift.
func goldenArtifacts(t *testing.T, cfg fleet.Config) string {
	t.Helper()
	root := obs.New()
	mix := cfg.Mix
	cfg.Obs = obs.Sub(root)
	res := mustRun(t, cfg)
	root.MergeTagged(cfg.Obs, obs.S("mix", mix.String()))

	trace := renderTrace(t, root.Trace(), "jsonl", 0)
	ctrace := renderTrace(t, root.Trace(), "colf", colf.DefaultBlockRecords)
	var metrics bytes.Buffer
	if err := obs.WriteMetricsCSV(&metrics, "fleet", root.Meter()); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "# golden fleet artifacts: seed=%d ues=%d window=%v mix=%s\n",
		cfg.Seed, cfg.UEs, res.Cfg.WindowS, mix)
	b.WriteString(experiments.FleetTable([]*fleet.Result{res}).String())
	fmt.Fprintf(&b, "trace_jsonl fnv64a=%016x bytes=%d\n", fnv64a(trace), len(trace))
	fmt.Fprintf(&b, "trace_colf fnv64a=%016x bytes=%d\n", fnv64a(ctrace), len(ctrace))
	fmt.Fprintf(&b, "metrics_csv fnv64a=%016x bytes=%d\n", fnv64a(metrics.Bytes()), metrics.Len())
	return b.String()
}

// mustRun runs a campaign, failing the test on a construction error.
func mustRun(t *testing.T, cfg fleet.Config) *fleet.Result {
	t.Helper()
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestGoldenArtifacts pins the campaign output of every mix against
// testdata goldens generated before the chunk-kernel flattening: any change
// to the simulated floats — a reordered addition, a cached value that is
// not bit-identical to what it replaced — shows up here as a table diff or
// a trace-hash mismatch. Regenerate with `go test -run Golden -update`
// only for a deliberate, explained model change.
func TestGoldenArtifacts(t *testing.T) {
	checkGoldens(t, "golden_", goldenConfig)
}

// TestLargeGoldenArtifacts pins the 5000-UE campaign the same way, so the
// radix-sorted table has pinned bytes too.
func TestLargeGoldenArtifacts(t *testing.T) {
	checkGoldens(t, "golden_large_", largeGoldenConfig)
}

// checkGoldens compares each mix's campaign artifacts with
// testdata/<prefix><mix>.txt, or rewrites the file under -update.
func checkGoldens(t *testing.T, prefix string, config func(fleet.Mix) fleet.Config) {
	for _, mix := range fleet.AllMixes {
		mix := mix
		t.Run(mix.String(), func(t *testing.T) {
			got := goldenArtifacts(t, config(mix))
			path := filepath.Join("testdata", prefix+mix.String()+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `go test -run Golden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("campaign artifacts drifted from pinned goldens:\n%s",
					firstDiff(string(want), got))
			}
		})
	}
}
