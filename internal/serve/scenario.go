// Package serve turns the deterministic simulation library into a
// long-running scenario service: an HTTP daemon (stdlib net/http only) that
// accepts scenario configs as JSON, schedules them on the existing worker
// machinery (experiments.RunManyCtx's LPT pool for batteries, fleet's engine
// shards for campaigns), and streams the requested artifact — rendered
// tables, obs trace JSONL or colf bytes, metrics CSV — back in chunks as it
// is produced.
//
// The determinism contract is what makes serving nearly free: every
// artifact is a pure function of (scenario, seed), so a response is keyed
// by the canonicalized scenario and cached with single-flight
// de-duplication, the same discipline trace.Cache applies to trace sets.
// Repeat requests replay byte-identical artifacts without re-simulating.
//
// Scenario and Run are also the offline front ends' runner: fgrepro and
// fgfleet parse their flags into a Scenario, check it with Validate, and
// call Run, so the served bytes equal the CLI artifacts by construction
// (the ci.sh smoke gate checks the HTTP transport on top).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"fivegsim/internal/experiments"
	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
)

// Artifact names which rendered output of a scenario the response carries.
const (
	ArtifactTable   = "table"
	ArtifactTrace   = "trace"
	ArtifactMetrics = "metrics"
)

// Scenario is the request body of POST /v1/run: one battery or fleet run
// plus the artifact selection. Zero values mean the CLI defaults (seed 1,
// artifact "table", trace format "jsonl", every experiment / every mix), so
// the canonical key of an omitted field equals the key of its explicit
// default.
type Scenario struct {
	// Kind selects the runner: "battery" (the fgrepro experiment battery)
	// or "fleet" (an fgfleet population campaign).
	Kind string `json:"kind"`
	// Seed drives all randomness; nil means 1, the CLI default.
	Seed *int64 `json:"seed,omitempty"`
	// Artifact is "table" (default), "trace", or "metrics".
	Artifact string `json:"artifact,omitempty"`
	// TraceFormat is "jsonl" (default) or "colf"; trace artifact only.
	TraceFormat string `json:"trace_format,omitempty"`

	// Experiments lists battery experiment ids; empty means all (the
	// `fgrepro all` battery). Battery kind only.
	Experiments []string `json:"experiments,omitempty"`
	// Quick selects the reduced-repeat battery (`fgrepro -quick`).
	// Battery kind only.
	Quick bool `json:"quick,omitempty"`
	// Workers bounds the battery's concurrent experiments (`fgrepro
	// -parallel`); 0 means GOMAXPROCS. Like FleetScenario.Shards it cannot
	// change a byte of output, so it stays out of the key. It has no JSON
	// name: fgservd always runs batteries at GOMAXPROCS.
	Workers int `json:"-"`

	// Fleet parameterises the campaign; required for kind "fleet".
	Fleet *FleetScenario `json:"fleet,omitempty"`
}

// FleetScenario mirrors the fgfleet flags. Mix "all" (the default) runs one
// campaign per deployment mix, exactly like the CLI.
type FleetScenario struct {
	UEs        int     `json:"ues"`
	Shards     int     `json:"shards,omitempty"` // never part of the cache key: output is shard-invariant
	Mix        string  `json:"mix,omitempty"`
	WindowS    float64 `json:"window_s,omitempty"`
	SessionS   float64 `json:"session_s,omitempty"`
	TraceEvery int     `json:"trace_every,omitempty"`
}

// ParseScenario decodes and validates a request body. Unknown fields and
// anything after the scenario object are rejected: a typoed knob or a
// second scenario must fail loudly, never silently run the default or the
// first one.
func ParseScenario(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("malformed scenario JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("malformed scenario JSON: trailing data after the scenario object")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// seed returns the effective seed (nil means the CLI default, 1).
func (sc *Scenario) seed() int64 {
	if sc.Seed == nil {
		return 1
	}
	return *sc.Seed
}

// artifact returns the effective artifact selection.
func (sc *Scenario) artifact() string {
	if sc.Artifact == "" {
		return ArtifactTable
	}
	return sc.Artifact
}

// traceFormat returns the effective trace encoding.
func (sc *Scenario) traceFormat() string {
	if sc.TraceFormat == "" {
		return "jsonl"
	}
	return sc.TraceFormat
}

// batteryIDs returns the battery's effective experiment list (empty means
// every registered experiment, in sorted id order — `fgrepro all`).
func (sc *Scenario) batteryIDs() []string {
	if len(sc.Experiments) == 0 {
		return experiments.IDs()
	}
	return sc.Experiments
}

// fleetConfig builds the (validated, defaulted) campaign config for one mix.
func (sc *Scenario) fleetConfig(mix fleet.Mix) fleet.Config {
	f := sc.Fleet
	return fleet.Config{
		Seed:       sc.seed(),
		UEs:        f.UEs,
		Shards:     f.Shards,
		Mix:        mix,
		WindowS:    f.WindowS,
		SessionS:   f.SessionS,
		TraceEvery: f.TraceEvery,
	}.Defaulted()
}

// fleetMixes resolves the scenario's mix selection ("" and "all" mean every
// mix, in table order).
func (sc *Scenario) fleetMixes() ([]fleet.Mix, error) {
	name := sc.Fleet.Mix
	if name == "" || name == "all" {
		return fleet.AllMixes, nil
	}
	m, err := fleet.MixByName(name)
	if err != nil {
		return nil, err
	}
	return []fleet.Mix{m}, nil
}

// traceFormats lists the trace encodings every front end accepts, in the
// order GET /v1/scenarios reports them.
var traceFormats = []string{"jsonl", "colf"}

// CheckTraceFormat rejects a trace encoding outside the accepted ones. The
// CLIs parse -trace-format through it, and Validate applies it to
// trace_format.
func CheckTraceFormat(format string) error {
	if !slices.Contains(traceFormats, format) {
		return fmt.Errorf("trace format must be %s (got %q)", strings.Join(traceFormats, " or "), format)
	}
	return nil
}

// Validate rejects a scenario Run could not execute. fgservd, fgrepro and
// fgfleet all check their scenarios here, and fleet knobs go through
// fleet.Config.Validate, so every front end and the fleet library refuse
// the same inputs with the same message.
func (sc *Scenario) Validate() error {
	switch sc.artifact() {
	case ArtifactTable, ArtifactTrace, ArtifactMetrics:
	default:
		return fmt.Errorf("artifact must be table, trace, or metrics (got %q)", sc.Artifact)
	}
	if err := CheckTraceFormat(sc.traceFormat()); err != nil {
		return err
	}
	switch sc.Kind {
	case "battery":
		if sc.Fleet != nil {
			return fmt.Errorf("battery scenario must not carry a fleet config")
		}
		ids := experiments.IDs()
		for _, id := range sc.Experiments {
			if !slices.Contains(ids, id) {
				return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(ids, ", "))
			}
		}
	case "fleet":
		if sc.Fleet == nil {
			return fmt.Errorf("fleet scenario requires a fleet config")
		}
		if sc.Quick || len(sc.Experiments) > 0 {
			return fmt.Errorf("fleet scenario must not carry quick or experiments (battery fields)")
		}
		mixes, err := sc.fleetMixes()
		if err != nil {
			return err
		}
		// Validate the library config for one mix; the knobs are identical
		// across mixes.
		if err := sc.fleetConfig(mixes[0]).Validate(); err != nil {
			return err
		}
	case "":
		return fmt.Errorf("kind is required: battery or fleet")
	default:
		return fmt.Errorf("kind must be battery or fleet (got %q)", sc.Kind)
	}
	return nil
}

// CanonicalKey renders the scenario in a normalized, defaults-resolved form:
// equal keys produce byte-identical artifacts, so the key is the cache key.
// A fleet key names only the knobs that can change the requested artifact:
//   - shard count never: by the fleet determinism contract it cannot change
//     a byte of output;
//   - the trace stride only in trace keys, because it reaches nothing else.
func (sc *Scenario) CanonicalKey() string {
	var b strings.Builder
	b.WriteString(sc.Kind)
	b.WriteString(" seed=")
	b.WriteString(strconv.FormatInt(sc.seed(), 10))
	b.WriteString(" artifact=")
	b.WriteString(sc.artifact())
	if sc.artifact() == ArtifactTrace {
		b.WriteString(" format=")
		b.WriteString(sc.traceFormat())
	}
	switch sc.Kind {
	case "battery":
		fmt.Fprintf(&b, " quick=%t ids=%s", sc.Quick, strings.Join(sc.batteryIDs(), ","))
	case "fleet":
		f := sc.Fleet
		mix := f.Mix
		if mix == "" {
			mix = "all"
		}
		cfg := sc.fleetConfig(fleet.MixLowBand) // mix rendered separately
		fmt.Fprintf(&b, " ues=%d mix=%s window=%s session=%s",
			cfg.UEs, mix,
			strconv.FormatFloat(cfg.WindowS, 'g', -1, 64),
			strconv.FormatFloat(cfg.SessionS, 'g', -1, 64))
		if sc.artifact() == ArtifactTrace {
			fmt.Fprintf(&b, " every=%d", cfg.TraceEvery)
		}
	}
	return b.String()
}

// ContentType returns the response media type of the scenario's artifact.
func (sc *Scenario) ContentType() string {
	switch sc.artifact() {
	case ArtifactTrace:
		if sc.traceFormat() == "colf" {
			return "application/octet-stream"
		}
		return "application/x-ndjson"
	case ArtifactMetrics:
		return "text/csv; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}

// Outputs selects the artifacts Run writes; a nil writer skips its
// artifact. The trace is encoded in the scenario's TraceFormat.
type Outputs struct {
	Table, Trace, Metrics io.Writer
}

// Report is what a run's -stats summary prints, and nothing else. Its wall
// times are host wall clock; no artifact reads them.
type Report struct {
	// Battery holds one result per experiment, with its wall time, event
	// count and collector, whose trace Len is the record count (kind
	// battery).
	Battery []experiments.Result
	// Fleet holds one campaign per mix and FleetWall each campaign's wall
	// time (kind fleet).
	Fleet     []*fleet.Result
	FleetWall []time.Duration
}

// Run executes a validated scenario once and writes the artifacts out
// selects, in a fixed order: the tables, then the trace, then the metrics.
// Obs collection turns on only when an artifact needs it, and no artifact's
// bytes depend on which others were requested, so fgservd's one-artifact
// responses equal the fgrepro and fgfleet files for the same scenario.
// Fleet traces stream through fleet.Spill campaign by campaign, so trace
// memory is one campaign's sampled sessions: about 512 at the default
// stride, O(UEs/TraceEvery) in general.
//
// Cancellation is cooperative at reduce-step granularity: between battery
// experiments (RunManyCtx) and between fleet campaigns (RunFleet). A
// canceled run returns ctx's error; whatever bytes were already written
// must be discarded by the caller (the server abandons the cache entry).
func Run(ctx context.Context, sc *Scenario, out Outputs) (*Report, error) {
	rep := &Report{}
	var table, trace, metrics func(io.Writer) error
	switch sc.Kind {
	case "battery":
		cfg := experiments.Config{Seed: sc.seed(), Quick: sc.Quick}
		if out.Trace != nil || out.Metrics != nil {
			// A non-nil collector tells RunManyCtx to hand every
			// experiment its own registry.
			cfg.Obs = obs.New()
		}
		results, err := experiments.RunManyCtx(ctx, cfg, sc.batteryIDs(), sc.Workers)
		if err != nil {
			return nil, err
		}
		rep.Battery = results
		table = func(w io.Writer) error {
			for _, r := range results {
				if err := writeTables(w, r.Tables...); err != nil {
					return err
				}
			}
			return nil
		}
		trace = func(w io.Writer) error {
			if sc.traceFormat() == "colf" {
				return experiments.WriteTraceColf(w, results)
			}
			return experiments.WriteTrace(w, results)
		}
		metrics = func(w io.Writer) error { return experiments.WriteMetrics(w, results) }
	case "fleet":
		mixes, err := sc.fleetMixes()
		if err != nil {
			return nil, err
		}
		// The trace streams through the Spill; the collector gathers
		// metrics only.
		var root *obs.Obs
		if out.Metrics != nil {
			root = obs.New()
		}
		base := sc.fleetConfig(mixes[0]) // RunFleet sets each campaign's mix
		if out.Trace != nil {
			if sc.traceFormat() == "colf" {
				base.Spill = fleet.NewColfSpill(out.Trace, "fleet")
			} else {
				base.Spill = fleet.NewJSONLSpill(out.Trace, "fleet")
			}
		}
		rep.Fleet, rep.FleetWall, err = experiments.RunFleet(ctx, base, mixes, root)
		if err != nil {
			return nil, err
		}
		table = func(w io.Writer) error { return writeTables(w, experiments.FleetTable(rep.Fleet)) }
		trace = func(io.Writer) error { return base.Spill.Close() }
		// The fleet metrics CSV has no header line.
		metrics = func(w io.Writer) error { return obs.WriteMetricsCSV(w, "fleet", root.Meter()) }
	default:
		return nil, fmt.Errorf("kind must be battery or fleet (got %q)", sc.Kind)
	}
	for _, a := range []struct {
		name  string
		w     io.Writer
		write func(io.Writer) error
	}{{"table", out.Table, table}, {"trace", out.Trace, trace}, {"metrics", out.Metrics, metrics}} {
		if a.w == nil {
			continue
		}
		if err := a.write(a.w); err != nil {
			// A failed write fails the run: a truncated artifact must
			// never look like a complete one.
			return nil, fmt.Errorf("writing %s: %w", a.name, err)
		}
	}
	return rep, nil
}

// writeTables prints each table followed by a newline, as fmt.Println does.
func writeTables(w io.Writer, ts ...*experiments.Table) error {
	for _, t := range ts {
		if _, err := fmt.Fprintln(w, t); err != nil {
			return err
		}
	}
	return nil
}

// RunScenario runs a validated scenario and writes the one artifact it
// selects to w. It is fgservd's call into Run.
func RunScenario(ctx context.Context, sc *Scenario, w io.Writer) error {
	var out Outputs
	switch sc.artifact() {
	case ArtifactTrace:
		out.Trace = w
	case ArtifactMetrics:
		out.Metrics = w
	default:
		out.Table = w
	}
	_, err := Run(ctx, sc, out)
	return err
}

// RunFiles is Run for the CLIs: the tables go to table, and the trace and
// metrics artifacts to tracePath and metricsPath ("" skips the artifact).
// A new path, or an existing regular file, is written through a temporary
// file in its directory, renamed over the path only after the run, every
// write and every close succeed; on failure the temporary file is removed,
// so the path is left absent or with its previous bytes. An existing path
// that is not a regular file (a device such as /dev/null, a FIFO, or a
// symlink) is written in place, since a rename would replace it. Every
// file error names the path the caller gave.
func RunFiles(ctx context.Context, sc *Scenario, table io.Writer, tracePath, metricsPath string) (rep *Report, err error) {
	var files []*artifactFile
	defer func() {
		for _, f := range files {
			if cerr := f.close(err == nil); err == nil {
				err = cerr
			}
		}
		if err != nil {
			rep = nil
		}
	}()
	create := func(path string) (io.Writer, error) {
		if path == "" {
			return nil, nil
		}
		f, err := createArtifact(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	out := Outputs{Table: table}
	if out.Trace, err = create(tracePath); err != nil {
		return nil, err
	}
	if out.Metrics, err = create(metricsPath); err != nil {
		return nil, err
	}
	return Run(ctx, sc, out)
}

// artifactFile is one CLI artifact being written: either the file at path
// itself, or a temporary file tmp that close renames over path.
type artifactFile struct {
	f         *os.File
	path, tmp string // tmp is "" when f is path itself
}

// createArtifact opens path's artifact file for writing (see RunFiles). A
// temporary file is created exclusively with mode 0666 before the umask,
// as os.Create creates a file, and takes an existing file's permission
// bits, as os.Create's truncation keeps them.
func createArtifact(path string) (*artifactFile, error) {
	fi, err := os.Lstat(path)
	if err == nil && !fi.Mode().IsRegular() {
		f, err := os.Create(path)
		return &artifactFile{f: f, path: path}, err
	}
	// The process id keeps concurrent runs apart; the counter, one run's
	// trace and metrics at one path, or a stale file of a dead process.
	a := &artifactFile{path: path}
	dir, base := filepath.Split(path)
	for i := 0; a.f == nil; i++ {
		a.tmp = filepath.Join(dir, fmt.Sprintf(".%s.%d-%d.tmp", base, os.Getpid(), i))
		a.f, err = os.OpenFile(a.tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if err != nil && (!errors.Is(err, fs.ErrExist) || i == 99) {
			return nil, fmt.Errorf("creating %s: %w", path, err)
		}
	}
	if fi != nil {
		if err := a.f.Chmod(fi.Mode().Perm()); err != nil {
			return nil, errors.Join(a.named(err), a.close(false))
		}
	}
	return a, nil
}

// Write writes to the file; an error names the caller's path.
func (a *artifactFile) Write(p []byte) (int, error) {
	n, err := a.f.Write(p)
	return n, a.named(err)
}

// close closes the file. A temporary file is then renamed over the path
// when ok, and removed otherwise or when the close or rename fails.
func (a *artifactFile) close(ok bool) error {
	err := a.named(a.f.Close())
	if a.tmp == "" {
		return err
	}
	if ok && err == nil {
		err = os.Rename(a.tmp, a.path)
	}
	if !ok || err != nil {
		if rerr := os.Remove(a.tmp); err == nil {
			err = rerr
		}
	}
	return err
}

// named replaces the temporary file's name in a file error with the
// caller's path.
func (a *artifactFile) named(err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) && pe.Path == a.f.Name() {
		pe.Path = a.path
	}
	return err
}
