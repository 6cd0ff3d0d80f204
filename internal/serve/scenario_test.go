package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"fivegsim/internal/experiments"
	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
)

// TestParseScenarioRejects: malformed JSON, unknown fields, and invalid
// scenarios all fail ParseScenario — a typo must never run a default
// scenario silently.
func TestParseScenarioRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"not json", `this is not json`},
		{"unknown field", `{"kind":"battery","quik":true}`},
		{"missing kind", `{}`},
		{"bad kind", `{"kind":"warmup"}`},
		{"bad artifact", `{"kind":"battery","artifact":"pdf"}`},
		{"bad trace format", `{"kind":"battery","artifact":"trace","trace_format":"xml"}`},
		{"unknown experiment", `{"kind":"battery","experiments":["nope"]}`},
		{"battery with fleet", `{"kind":"battery","fleet":{"ues":10}}`},
		{"fleet without fleet", `{"kind":"fleet"}`},
		{"fleet zero ues", `{"kind":"fleet","fleet":{"ues":0}}`},
		{"fleet negative shards", `{"kind":"fleet","fleet":{"ues":10,"shards":-1}}`},
		{"fleet negative window", `{"kind":"fleet","fleet":{"ues":10,"window_s":-5}}`},
		{"fleet unknown mix", `{"kind":"fleet","fleet":{"ues":10,"mix":"nope"}}`},
		{"fleet session chunks overflow int32", `{"kind":"fleet","fleet":{"ues":10,"session_s":1e10}}`},
		{"second object", `{"kind":"battery"} {"kind":"fleet"}`},
		{"trailing garbage", `{"kind":"battery","quick":true}garbage`},
		{"fleet with quick", `{"kind":"fleet","quick":true,"fleet":{"ues":10}}`},
		{"fleet with experiments", `{"kind":"fleet","experiments":["table7"],"fleet":{"ues":10}}`},
		{"fleet with battery fields", `{"kind":"fleet","quick":true,"experiments":["nope"],"fleet":{"ues":10}}`},
		{"workers is CLI-only", `{"kind":"battery","workers":2}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseScenario(strings.NewReader(tc.body)); err == nil {
				t.Fatalf("ParseScenario accepted %s", tc.body)
			}
		})
	}
}

// TestCanonicalKeyNormalizes: omitted knobs and their explicit defaults key
// identically, and shard count never enters the key (output is
// shard-invariant by the determinism contract).
func TestCanonicalKeyNormalizes(t *testing.T) {
	one := int64(1)
	pairs := []struct {
		name string
		a, b Scenario
	}{
		{"battery defaults",
			Scenario{Kind: "battery"},
			Scenario{Kind: "battery", Seed: &one, Artifact: ArtifactTable}},
		{"fleet window default",
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50}},
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50, WindowS: 600, SessionS: 32}}},
		{"fleet shards ignored",
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50, Shards: 1}},
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50, Shards: 7}}},
		{"fleet mix all spelled out",
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50}},
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50, Mix: "all"}}},
		{"stream sketch_k default",
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50, Stream: true}},
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50, Stream: true, SketchK: fleet.DefaultSketchK}}},
		{"exact mode ignores sketch_k",
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50}},
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50, SketchK: 64}}},
		{"trace_every derived stride",
			Scenario{Kind: "fleet", Artifact: ArtifactTrace, Fleet: &FleetScenario{UEs: 5000}},
			Scenario{Kind: "fleet", Artifact: ArtifactTrace, Fleet: &FleetScenario{UEs: 5000, TraceEvery: 5000/512 + 1}}},
		{"table ignores trace_every",
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50}},
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50, TraceEvery: 3}}},
		{"metrics ignores trace_every",
			Scenario{Kind: "fleet", Artifact: ArtifactMetrics, Fleet: &FleetScenario{UEs: 50}},
			Scenario{Kind: "fleet", Artifact: ArtifactMetrics, Fleet: &FleetScenario{UEs: 50, TraceEvery: 3}}},
		{"metrics ignores sketch_k",
			Scenario{Kind: "fleet", Artifact: ArtifactMetrics, Fleet: &FleetScenario{UEs: 50, Stream: true}},
			Scenario{Kind: "fleet", Artifact: ArtifactMetrics, Fleet: &FleetScenario{UEs: 50, Stream: true, SketchK: 64}}},
		{"trace ignores stream and sketch_k",
			Scenario{Kind: "fleet", Artifact: ArtifactTrace, Fleet: &FleetScenario{UEs: 50}},
			Scenario{Kind: "fleet", Artifact: ArtifactTrace, Fleet: &FleetScenario{UEs: 50, Stream: true, SketchK: 64}}},
	}
	for _, tc := range pairs {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := tc.a.CanonicalKey(), tc.b.CanonicalKey()
			if ka != kb {
				t.Errorf("keys differ:\n  %s\n  %s", ka, kb)
			}
		})
	}
	ta := Scenario{Kind: "battery"}
	tb := Scenario{Kind: "battery", Quick: true}
	if ta.CanonicalKey() == tb.CanonicalKey() {
		t.Error("quick and full batteries share a key")
	}
}

// TestSharedKeySharesBytes: scenarios that share a canonical key serve the
// same bytes, so the cache never answers one with the other's artifact.
// Each merged pair differs only in a knob its artifact's key leaves out.
// The last case is the negative: a knob that changes the bytes must change
// the key.
func TestSharedKeySharesBytes(t *testing.T) {
	fleetSc := func(artifact, format string, every int, stream bool, sketchK int) *Scenario {
		return &Scenario{Kind: "fleet", Artifact: artifact, TraceFormat: format,
			Fleet: &FleetScenario{UEs: 300, Mix: "mixed", WindowS: 30, SessionS: 8,
				TraceEvery: every, Stream: stream, SketchK: sketchK}}
	}
	cases := []struct {
		name   string
		a, b   *Scenario
		merged bool
	}{
		{"table trace_every", fleetSc(ArtifactTable, "", 0, false, 0), fleetSc(ArtifactTable, "", 3, false, 0), true},
		{"metrics trace_every", fleetSc(ArtifactMetrics, "", 0, false, 0), fleetSc(ArtifactMetrics, "", 3, false, 0), true},
		{"metrics stream sketch_k", fleetSc(ArtifactMetrics, "", 0, true, 0), fleetSc(ArtifactMetrics, "", 0, true, 64), true},
		{"jsonl trace stream", fleetSc(ArtifactTrace, "", 0, false, 0), fleetSc(ArtifactTrace, "", 0, true, 0), true},
		{"jsonl trace stream sketch_k", fleetSc(ArtifactTrace, "", 0, false, 0), fleetSc(ArtifactTrace, "", 0, true, 64), true},
		{"colf trace stream", fleetSc(ArtifactTrace, "colf", 0, false, 0), fleetSc(ArtifactTrace, "colf", 0, true, 0), true},
		{"colf trace stream sketch_k", fleetSc(ArtifactTrace, "colf", 0, false, 0), fleetSc(ArtifactTrace, "colf", 0, true, 64), true},
		{"table exact vs stream sketch_k", fleetSc(ArtifactTable, "", 0, false, 0), fleetSc(ArtifactTable, "", 0, true, 64), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var bodies [2]bytes.Buffer
			for i, sc := range []*Scenario{tc.a, tc.b} {
				if err := sc.Validate(); err != nil {
					t.Fatal(err)
				}
				if err := RunScenario(context.Background(), sc, &bodies[i]); err != nil {
					t.Fatal(err)
				}
			}
			ka, kb := tc.a.CanonicalKey(), tc.b.CanonicalKey()
			if sameKey := ka == kb; sameKey != tc.merged {
				t.Errorf("shared key = %t, want %t:\n  %s\n  %s", sameKey, tc.merged, ka, kb)
			}
			if sameBytes := bytes.Equal(bodies[0].Bytes(), bodies[1].Bytes()); sameBytes != tc.merged {
				t.Errorf("equal bytes = %t, want %t (%d vs %d bytes)",
					sameBytes, tc.merged, bodies[0].Len(), bodies[1].Len())
			}
		})
	}
}

// TestBatteryTableMatchesRunMany: the served battery table is the exact
// byte concatenation fgrepro prints for the same ids and seed.
func TestBatteryTableMatchesRunMany(t *testing.T) {
	sc := &Scenario{Kind: "battery", Quick: true, Experiments: []string{"table7", "fig11"}}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RunScenario(context.Background(), sc, &got); err != nil {
		t.Fatal(err)
	}
	results, err := experiments.RunMany(experiments.Config{Seed: 1, Quick: true},
		[]string{"table7", "fig11"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range results {
		for _, tbl := range r.Tables {
			want.WriteString(tbl.String())
			want.WriteString("\n")
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("served battery table differs from RunMany rendering")
	}
}

// TestFleetTraceMatchesCentralPipeline: the served fleet trace (the
// Spill path) is byte-identical to the central reduce's
// trace rendered with WriteTraceJSON for the same campaign — the two
// encoders share nothing but the record contract.
func TestFleetTraceMatchesCentralPipeline(t *testing.T) {
	sc := &Scenario{Kind: "fleet", Artifact: ArtifactTrace,
		Fleet: &FleetScenario{UEs: 61, Mix: "mixed", WindowS: 20, SessionS: 8}}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RunScenario(context.Background(), sc, &got); err != nil {
		t.Fatal(err)
	}

	root := obs.New()
	sub := obs.Sub(root)
	mix, err := fleet.MixByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.fleetConfig(mix)
	cfg.Obs = sub
	if _, err := fleet.Run(cfg); err != nil {
		t.Fatal(err)
	}
	root.MergeTagged(sub, obs.S("mix", "mixed"))
	var want bytes.Buffer
	if err := obs.WriteTraceJSON(&want, "fleet", root.Trace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("served fleet trace differs from the central pipeline\nserved %d bytes, central %d bytes",
			got.Len(), want.Len())
	}
	if got.Len() == 0 {
		t.Error("trace artifact is empty")
	}
}

// TestRunScenarioCanceled: a canceled context stops a fleet scenario
// between campaigns with a wrapped context error.
func TestRunScenarioCanceled(t *testing.T) {
	sc := &Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 10, WindowS: 20, SessionS: 8}}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := RunScenario(ctx, sc, &buf); err == nil {
		t.Fatal("canceled fleet scenario returned nil error")
	}
}
