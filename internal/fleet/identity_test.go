package fleet_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"fivegsim/internal/experiments"
	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
)

// campaignBytes runs one campaign per mix at the given shard count and
// renders everything a campaign can emit — the population table, the trace
// JSON, and the metrics CSV — as one byte string.
func campaignBytes(t *testing.T, shards int) string {
	t.Helper()
	root := obs.New()
	rs := make([]*fleet.Result, 0, len(fleet.AllMixes))
	for _, mix := range fleet.AllMixes {
		sub := obs.Sub(root)
		// 403 UEs: non-power-of-two and indivisible by every tested shard
		// count, so partitions are uneven (403 = 7*57 + 4).
		rs = append(rs, mustRun(t, fleet.Config{
			Seed:    7,
			UEs:     403,
			Shards:  shards,
			Mix:     mix,
			WindowS: 60,
			Obs:     sub,
		}))
		root.MergeTagged(sub, obs.S("mix", mix.String()))
	}
	var b bytes.Buffer
	b.WriteString(experiments.FleetTable(rs).String())
	if err := obs.WriteTraceJSON(&b, "fleet", root.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetricsCSV(&b, "fleet", root.Meter()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestShardCountByteIdentity is the fleet determinism contract, enforced:
// tables and obs artifacts are byte-identical for shards in {1, 2, 4, 7}
// with an uneven 403-UE population, and for a shard count far above the
// population (one UE per shard). Run under -race -shuffle=on in CI.
func TestShardCountByteIdentity(t *testing.T) {
	want := campaignBytes(t, 1)
	for _, shards := range []int{2, 4, 7, math.MaxInt} {
		got := campaignBytes(t, shards)
		if got != want {
			t.Errorf("shards=%d output diverges from serial run:\n%s",
				shards, firstDiff(want, got))
		}
	}
}

// TestSeedChangesOutput guards against the identity test passing vacuously
// (e.g. everything rendering as zeros): a different campaign seed must
// produce different bytes.
func TestSeedChangesOutput(t *testing.T) {
	a := mustRun(t, fleet.Config{Seed: 1, UEs: 50, Shards: 2, WindowS: 30})
	b := mustRun(t, fleet.Config{Seed: 2, UEs: 50, Shards: 2, WindowS: 30})
	ta := experiments.FleetTable([]*fleet.Result{a}).String()
	tb := experiments.FleetTable([]*fleet.Result{b}).String()
	if ta == tb {
		t.Fatal("campaigns with different seeds rendered identical tables")
	}
}

func firstDiff(want, got string) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hiW, hiG := i+80, i+80
			if hiW > len(want) {
				hiW = len(want)
			}
			if hiG > len(got) {
				hiG = len(got)
			}
			return fmt.Sprintf("first diff at byte %d:\nwant ...%q...\ngot  ...%q...",
				i, want[lo:hiW], got[lo:hiG])
		}
	}
	return fmt.Sprintf("lengths differ: want %d bytes, got %d", len(want), len(got))
}
