package experiments

import (
	"bytes"
	"context"
	"testing"

	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
	"fivegsim/internal/obs/colf"
)

// TestWriteTraceColfByteIdentical extends the battery artifact contract to
// the binary format: colf bytes are identical between a serial and a
// 4-worker run, and decoding them reproduces the JSONL artifact byte for
// byte.
func TestWriteTraceColfByteIdentical(t *testing.T) {
	run := func(workers int) (colfBytes, jsonlBytes string) {
		cfg := Config{Seed: 5, Quick: true, Obs: obs.New()}
		results, err := RunManyCtx(context.Background(), cfg, obsIDs, workers)
		if err != nil {
			t.Fatal(err)
		}
		var cb, jb bytes.Buffer
		if err := WriteTraceColf(&cb, results); err != nil {
			t.Fatal(err)
		}
		if err := WriteTrace(&jb, results); err != nil {
			t.Fatal(err)
		}
		return cb.String(), jb.String()
	}

	c1, j1 := run(1)
	c4, _ := run(4)
	if c1 != c4 {
		t.Errorf("colf artifact differs between 1 and 4 workers (%d vs %d bytes)", len(c1), len(c4))
	}

	var decoded bytes.Buffer
	if err := colf.DecodeToJSON(bytes.NewReader([]byte(c1)), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.String() != j1 {
		t.Errorf("decoded colf trace differs from direct JSONL (%d vs %d bytes)",
			decoded.Len(), len(j1))
	}
	if len(c1) >= len(j1) {
		t.Errorf("colf artifact (%d B) not smaller than JSONL (%d B)", len(c1), len(j1))
	}
}

// fleetCampaigns runs one campaign per mix at the given shard count, merging
// each sub-collector into root in mix order — the fgfleet wiring.
func fleetCampaigns(root *obs.Obs, shards int) []*fleet.Result {
	rs := make([]*fleet.Result, 0, len(fleet.AllMixes))
	for _, mix := range fleet.AllMixes {
		sub := obs.Sub(root)
		r, err := fleet.Run(fleet.Config{
			Seed: 7, UEs: 403, Shards: shards, Mix: mix, WindowS: 60,
			Obs: sub,
		})
		if err != nil {
			panic(err)
		}
		root.MergeTagged(sub, obs.S("mix", mix.String()))
		rs = append(rs, r)
	}
	return rs
}

// TestFleetColfSpillShardInvariance is the acceptance gate for the binary
// artifact: a fleet trace encoded into colf produces byte-identical
// artifacts at shard counts {1,2,4,7}, and decoding reproduces exactly what
// WriteTraceJSON renders from the same campaigns.
func TestFleetColfSpillShardInvariance(t *testing.T) {
	encodeColf := func(shards int) string {
		root := obs.New()
		fleetCampaigns(root, shards)
		var buf bytes.Buffer
		// A small block size forces many block boundaries mid-campaign;
		// colf bytes must not depend on where the shards split the UEs.
		cw := colf.NewWriterSize(&buf, 37)
		if err := root.Trace().Walk(func(r *obs.Record) error { return cw.Add("fleet", r) }); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	want := encodeColf(1)
	for _, shards := range []int{2, 4, 7} {
		if got := encodeColf(shards); got != want {
			t.Errorf("colf artifact differs between 1 and %d shards (%d vs %d bytes)",
				shards, len(want), len(got))
		}
	}

	root := obs.New()
	fleetCampaigns(root, 3)
	var jsonl bytes.Buffer
	if err := obs.WriteTraceJSON(&jsonl, "fleet", root.Trace()); err != nil {
		t.Fatal(err)
	}
	var decoded bytes.Buffer
	if err := colf.DecodeToJSON(bytes.NewReader([]byte(want)), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.String() != jsonl.String() {
		t.Errorf("decoded colf differs from direct JSONL (%d vs %d bytes)",
			decoded.Len(), jsonl.Len())
	}
}
