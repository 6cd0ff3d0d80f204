package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"fivegsim/internal/experiments"
	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
)

// parseRejects are request bodies ParseScenario must reject, each named.
var parseRejects = []struct {
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
	{"fleet stream is retired", `{"kind":"fleet","fleet":{"ues":10,"stream":true}}`},
	{"fleet sketch_k is retired", `{"kind":"fleet","fleet":{"ues":10,"sketch_k":64}}`},
}

// TestParseScenarioRejects: malformed JSON, unknown fields, and invalid
// scenarios all fail ParseScenario — a typo must never run a default
// scenario silently.
func TestParseScenarioRejects(t *testing.T) {
	for _, tc := range parseRejects {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseScenario(strings.NewReader(tc.body)); err == nil {
				t.Fatalf("ParseScenario accepted %s", tc.body)
			}
		})
	}
}

// FuzzParseScenario: ParseScenario reads whatever a client POSTs, so any
// body must end in a scenario or an error, never a panic. An accepted
// scenario survives a round trip through its own JSON: the re-parsed
// scenario validates and has the same cache key, so the key follows the
// scenario, not how its body was spelled. The seeds are the load test's
// request pool and the bodies TestParseScenarioRejects rejects.
func FuzzParseScenario(f *testing.F) {
	for _, sc := range loadScenarios() {
		body, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, tc := range parseRejects {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sc, err := ParseScenario(bytes.NewReader(body))
		if err != nil {
			return
		}
		again, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("marshaling the scenario of %q: %v", body, err)
		}
		back, err := ParseScenario(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("%q parsed, but its re-marshaled %s fails: %v", body, again, err)
		}
		if got, want := back.CanonicalKey(), sc.CanonicalKey(); got != want {
			t.Fatalf("%q keys as %q, its re-marshaled %s as %q", body, want, again, got)
		}
	})
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
		{"trace_every derived stride",
			Scenario{Kind: "fleet", Artifact: ArtifactTrace, Fleet: &FleetScenario{UEs: 5000}},
			Scenario{Kind: "fleet", Artifact: ArtifactTrace, Fleet: &FleetScenario{UEs: 5000, TraceEvery: 5000/512 + 1}}},
		{"table ignores trace_every",
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50}},
			Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 50, TraceEvery: 3}}},
		{"metrics ignores trace_every",
			Scenario{Kind: "fleet", Artifact: ArtifactMetrics, Fleet: &FleetScenario{UEs: 50}},
			Scenario{Kind: "fleet", Artifact: ArtifactMetrics, Fleet: &FleetScenario{UEs: 50, TraceEvery: 3}}},
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
	fleetSc := func(artifact string, ues, every int) *Scenario {
		return &Scenario{Kind: "fleet", Artifact: artifact,
			Fleet: &FleetScenario{UEs: ues, Mix: "mixed", WindowS: 30, SessionS: 8,
				TraceEvery: every}}
	}
	cases := []struct {
		name   string
		a, b   *Scenario
		merged bool
	}{
		{"table trace_every", fleetSc(ArtifactTable, 300, 0), fleetSc(ArtifactTable, 300, 3), true},
		{"metrics trace_every", fleetSc(ArtifactMetrics, 300, 0), fleetSc(ArtifactMetrics, 300, 3), true},
		{"table 300 vs 301 ues", fleetSc(ArtifactTable, 300, 0), fleetSc(ArtifactTable, 301, 0), false},
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
// byte concatenation of RunManyCtx's tables, as fgrepro prints them for the
// same ids and seed.
func TestBatteryTableMatchesRunMany(t *testing.T) {
	sc := &Scenario{Kind: "battery", Quick: true, Experiments: []string{"table7", "fig11"}}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RunScenario(context.Background(), sc, &got); err != nil {
		t.Fatal(err)
	}
	results, err := experiments.RunManyCtx(context.Background(),
		experiments.Config{Seed: 1, Quick: true}, []string{"table7", "fig11"}, 0)
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
		t.Errorf("served battery table differs from RunManyCtx rendering")
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

// TestRunFilesAtomic: a CLI artifact reaches its path only whole. A
// canceled run leaves a fresh path absent and an existing file as it was;
// a finished run leaves no temporary file behind, writes Run's bytes,
// keeps an existing file's permission bits and gives a new file
// os.Create's. A trace and metrics path naming one regular or new file
// fail before anything is created, while two artifacts may share a
// device. A FIFO is written in place and stays a FIFO.
func TestRunFilesAtomic(t *testing.T) {
	sc := &Scenario{Kind: "fleet", Fleet: &FleetScenario{UEs: 10, WindowS: 20, SessionS: 8}}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fresh, old := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "metrics.csv")
	prev := []byte("previous artifact\n")
	if err := os.WriteFile(old, prev, 0o600); err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}

	link := filepath.Join(t.TempDir(), "link")
	if err := os.Symlink(dir, link); err != nil {
		t.Fatal(err)
	}
	for _, paths := range [][2]string{
		{old, old},
		{old, dir + "/../" + filepath.Base(dir) + "/metrics.csv"},
		{fresh, dir + "/./trace.jsonl"},
		{fresh, filepath.Join(link, "trace.jsonl")},
	} {
		if _, err := RunFiles(context.Background(), sc, io.Discard, paths[0], paths[1]); err == nil {
			t.Errorf("RunFiles(%q, %q) returned nil error for one file named twice", paths[0], paths[1])
		}
		if got := listing(); !slices.Equal(got, []string{"metrics.csv"}) {
			t.Errorf("after naming one file twice the directory holds %q, want only metrics.csv", got)
		}
		if b, err := os.ReadFile(old); err != nil || !bytes.Equal(b, prev) {
			t.Errorf("naming one file twice left the existing artifact %d bytes (%v), want its previous %d", len(b), err, len(prev))
		}
	}
	if _, err := RunFiles(context.Background(), sc, io.Discard, os.DevNull, os.DevNull); err != nil {
		t.Errorf("trace and metrics both to %s: %v", os.DevNull, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunFiles(ctx, sc, io.Discard, fresh, old); err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if got := listing(); !slices.Equal(got, []string{"metrics.csv"}) {
		t.Errorf("after a canceled run the directory holds %q, want only metrics.csv", got)
	}
	if b, err := os.ReadFile(old); err != nil || !bytes.Equal(b, prev) {
		t.Errorf("a canceled run changed the existing artifact to %q (%v)", b, err)
	}

	if _, err := RunFiles(context.Background(), sc, io.Discard, fresh, old); err != nil {
		t.Fatal(err)
	}
	if got := listing(); !slices.Equal(got, []string{"metrics.csv", "trace.jsonl"}) {
		t.Errorf("after a finished run the directory holds %q, want the two artifacts", got)
	}
	var trace, metrics bytes.Buffer
	if _, err := Run(context.Background(), sc, Outputs{Trace: &trace, Metrics: &metrics}); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{fresh: trace.Bytes(), old: metrics.Bytes()} {
		if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, want) {
			t.Errorf("%s: %d bytes (%v), want Run's %d", path, len(b), err, len(want))
		}
	}
	perm := func(path string) os.FileMode {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	ref := filepath.Join(dir, "ref")
	f, err := os.Create(ref)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got, want := perm(fresh), perm(ref); got != want {
		t.Errorf("new artifact mode %v, want os.Create's %v", got, want)
	}
	if got := perm(old); got != 0o600 {
		t.Errorf("existing artifact mode %v, want its previous 0600", got)
	}

	fifo := filepath.Join(dir, "fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	r, err := os.OpenFile(fifo, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := RunFiles(context.Background(), sc, io.Discard, "", fifo); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode().Type() != os.ModeNamedPipe {
		t.Fatalf("the FIFO was replaced: %v (%v)", fi.Mode(), err)
	}
	if b, err := io.ReadAll(r); err != nil || !bytes.Equal(b, metrics.Bytes()) {
		t.Errorf("FIFO carried %d bytes (%v), want Run's %d", len(b), err, metrics.Len())
	}
}
