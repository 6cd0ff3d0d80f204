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
// Repeat requests replay byte-identical artifacts without re-simulating,
// and the streamed bytes equal the offline fgrepro/fgfleet artifacts byte
// for byte (asserted by the ci.sh smoke gate).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

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
	Quick bool `json:"quick,omitempty"`

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
	Stream     bool    `json:"stream,omitempty"`
	SketchK    int     `json:"sketch_k,omitempty"`
	TraceEvery int     `json:"trace_every,omitempty"`
}

// ParseScenario decodes and validates a request body. Unknown fields are
// rejected: a typoed knob must fail loudly, never silently run the default
// scenario.
func ParseScenario(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("malformed scenario JSON: %w", err)
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
		Stream:     f.Stream,
		SketchK:    f.SketchK,
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

// Validate rejects a scenario the runners could not execute — with the same
// fail-fast discipline as the CLI flag validation, so fgservd, fgfleet, and
// the fleet library all refuse the same inputs.
func (sc *Scenario) Validate() error {
	switch sc.artifact() {
	case ArtifactTable, ArtifactTrace, ArtifactMetrics:
	default:
		return fmt.Errorf("artifact must be table, trace, or metrics (got %q)", sc.Artifact)
	}
	switch sc.traceFormat() {
	case "jsonl", "colf":
	default:
		return fmt.Errorf("trace_format must be jsonl or colf (got %q)", sc.TraceFormat)
	}
	switch sc.Kind {
	case "battery":
		if sc.Fleet != nil {
			return fmt.Errorf("battery scenario must not carry a fleet config")
		}
		known := make(map[string]bool)
		for _, id := range experiments.IDs() {
			known[id] = true
		}
		for _, id := range sc.Experiments {
			if !known[id] {
				return fmt.Errorf("unknown experiment %q (GET /v1/scenarios lists the ids)", id)
			}
		}
	case "fleet":
		if sc.Fleet == nil {
			return fmt.Errorf("fleet scenario requires a fleet config")
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
// Fleet shard count never enters the key — by the fleet determinism
// contract it cannot change a byte of output.
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
		fmt.Fprintf(&b, " ues=%d mix=%s window=%s session=%s stream=%t sketchk=%d every=%d",
			cfg.UEs, mix,
			strconv.FormatFloat(cfg.WindowS, 'g', -1, 64),
			strconv.FormatFloat(cfg.SessionS, 'g', -1, 64),
			cfg.Stream, cfg.SketchK, cfg.TraceEvery)
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

// RunScenario executes a validated scenario and writes the artifact to w,
// byte-identical to the offline CLI output for the same parameters:
// battery tables equal `fgrepro` stdout, battery trace/metrics equal the
// `-trace`/`-metrics` files, fleet tables equal `fgfleet` stdout, and fleet
// trace/metrics equal fgfleet's artifact files. Trace artifacts stream
// incrementally — the fleet path encodes through fleet.Spill so trace
// memory stays O(block) regardless of population size.
//
// Cancellation is cooperative at reduce-step granularity: between battery
// experiments (RunManyCtx) and between fleet campaigns. A canceled run
// returns ctx's error; whatever bytes were already streamed must be
// discarded by the caller (the server abandons the cache entry).
func RunScenario(ctx context.Context, sc *Scenario, w io.Writer) error {
	switch sc.Kind {
	case "battery":
		return runBatteryScenario(ctx, sc, w)
	case "fleet":
		return runFleetScenario(ctx, sc, w)
	}
	return fmt.Errorf("kind must be battery or fleet (got %q)", sc.Kind)
}

// runBatteryScenario reproduces the fgrepro artifact paths.
func runBatteryScenario(ctx context.Context, sc *Scenario, w io.Writer) error {
	cfg := experiments.Config{Seed: sc.seed(), Quick: sc.Quick}
	if sc.artifact() != ArtifactTable {
		// A non-nil collector tells RunManyCtx to hand every experiment its
		// own registry, exactly as fgrepro does for -trace/-metrics.
		cfg.Obs = obs.New()
	}
	results, err := experiments.RunManyCtx(ctx, cfg, sc.batteryIDs(), 0)
	if err != nil {
		return err
	}
	switch sc.artifact() {
	case ArtifactTable:
		for _, r := range results {
			for _, t := range r.Tables {
				// fgrepro prints each table with fmt.Println: String plus \n.
				if _, err := io.WriteString(w, t.String()); err != nil {
					return err
				}
				if _, err := io.WriteString(w, "\n"); err != nil {
					return err
				}
			}
		}
		return nil
	case ArtifactTrace:
		if sc.traceFormat() == "colf" {
			return experiments.WriteTraceColf(w, results)
		}
		return experiments.WriteTrace(w, results)
	case ArtifactMetrics:
		return experiments.WriteMetrics(w, results)
	}
	return fmt.Errorf("artifact must be table, trace, or metrics (got %q)", sc.Artifact)
}

// runFleetScenario reproduces the fgfleet artifact paths: one campaign per
// mix, the shared table renderers for stdout, the shard-parallel Spill for
// the trace artifact (O(block) memory), and the headerless metrics CSV.
func runFleetScenario(ctx context.Context, sc *Scenario, w io.Writer) error {
	mixes, err := sc.fleetMixes()
	if err != nil {
		return err
	}
	var root *obs.Obs
	if sc.artifact() == ArtifactMetrics {
		root = obs.New()
	}
	var spill *fleet.Spill
	if sc.artifact() == ArtifactTrace {
		if sc.traceFormat() == "colf" {
			spill = fleet.NewColfSpill(w, "fleet")
		} else {
			spill = fleet.NewJSONLSpill(w, "fleet")
		}
	}
	rs := make([]*fleet.Result, 0, len(mixes))
	for _, mix := range mixes {
		// The cancellation point: an in-flight request that lost its client
		// (or hit its timeout) stops between campaigns, not after all mixes.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("fleet scenario canceled: %w", err)
		}
		cfg := sc.fleetConfig(mix)
		sub := obs.Sub(root)
		cfg.Obs = sub
		if spill != nil {
			cfg.Spill = spill
			cfg.SpillTags = []obs.Field{obs.S("mix", mix.String())}
		}
		r, err := fleet.Run(cfg)
		if err != nil {
			return err
		}
		root.MergeTagged(sub, obs.S("mix", mix.String()))
		rs = append(rs, r)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("fleet scenario canceled: %w", err)
	}
	switch sc.artifact() {
	case ArtifactTable:
		var table string
		if sc.Fleet.Stream {
			table = experiments.FleetStreamTable(rs).String()
		} else {
			table = experiments.FleetTable(rs).String()
		}
		// fgfleet prints the table with fmt.Println: String plus \n.
		if _, err := io.WriteString(w, table); err != nil {
			return err
		}
		_, err := io.WriteString(w, "\n")
		return err
	case ArtifactTrace:
		return spill.Close()
	case ArtifactMetrics:
		// fgfleet writes the fleet metrics CSV without a header line.
		return obs.WriteMetricsCSV(w, "fleet", root.Meter())
	}
	return fmt.Errorf("artifact must be table, trace, or metrics (got %q)", sc.Artifact)
}
