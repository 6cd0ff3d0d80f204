// Command fgfleet runs city-scale fleet campaigns: 100k-1M concurrent UEs
// streaming over a tower deployment, sharded across engine cores, reporting
// population QoE/power/throughput CDFs per band mix.
//
// Usage:
//
//	fgfleet                        # 100k UEs per mix, all mixes
//	fgfleet -ues 1000000 -mix mmwave
//	fgfleet -ues 403 -shards 7 -trace t.json -metrics m.csv
//	fgfleet -stream -trace t.colf -trace-format colf
//	fgrepro colf2json t.colf       # decode a colf trace to JSON Lines
//
// Flags:
//
//	-ues N          population size per mix (default 100000)
//	-shards N       engine shards (0 = GOMAXPROCS)
//	-seed N         campaign seed (default 1)
//	-mix NAME       low-band, mmwave, mixed, or all (default all)
//	-window S       arrival window in sim seconds (default 600)
//	-session S      video session length in sim seconds (default 32)
//	-stream         O(shards) campaign memory: fold sessions into streaming
//	                shard stats instead of a per-UE results slice
//	-trace FILE     write sampled per-session trace records to FILE
//	-trace-format F trace encoding: jsonl (JSON Lines) or colf (columnar
//	                binary; decode with fgrepro colf2json)
//	-metrics FILE   write population histograms and counters (CSV)
//	-stats          wall-clock UEs/sec and event counts on stderr
//
// Invalid knob values (-ues 0, negative -shards, a non-positive or
// non-finite -window/-session) fail fast with exit status 2 before any
// shard starts; the same inputs are rejected by fleet.Config.Validate, so
// the library and fgservd refuse them identically.
//
// The trace artifact streams to FILE as each campaign completes: the shards
// encode their own trace segments in parallel and fleet.Run stitches them
// in shard order (fleet.Spill), so trace memory is bounded regardless of
// -ues. The fleet determinism contract applies: stdout and both artifacts
// are byte-identical for any -shards value, including 1, in both formats
// and both modes. Only -stats output (wall-clock) varies between runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"fivegsim/internal/experiments"
	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags and streams in, exit status out.
// Every failure path returns (2 for usage errors, 1 for runtime errors)
// instead of calling os.Exit, so deferred closes always execute and tests
// can drive the full CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fgfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ues := fs.Int("ues", 100000, "population size per mix")
	shards := fs.Int("shards", 0, "engine shards (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "campaign seed")
	mixName := fs.String("mix", "all", "deployment mix: low-band, mmwave, mixed, or all")
	window := fs.Float64("window", 600, "arrival window (sim seconds)")
	session := fs.Float64("session", 32, "video session length (sim seconds)")
	stream := fs.Bool("stream", false, "stream mode: O(shards) campaign memory, sketch-based percentiles")
	traceOut := fs.String("trace", "", "write sampled per-session trace records to this file")
	traceFormat := fs.String("trace-format", "jsonl", "trace encoding: jsonl or colf")
	metricsOut := fs.String("metrics", "", "write population histograms and counters (CSV) to this file")
	stats := fs.Bool("stats", false, "print wall-clock UEs/sec and event counts to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fgfleet: unknown argument %q (fgfleet takes flags only)\n", fs.Arg(0))
		return 2
	}
	if *traceFormat != "jsonl" && *traceFormat != "colf" {
		fmt.Fprintf(stderr, "fgfleet: -trace-format must be jsonl or colf, got %q\n", *traceFormat)
		return 2
	}

	mixes := fleet.AllMixes
	if *mixName != "all" {
		m, err := fleet.MixByName(*mixName)
		if err != nil {
			fmt.Fprintln(stderr, "fgfleet:", err)
			return 2
		}
		mixes = []fleet.Mix{m}
	}

	// Fail fast on bad campaign knobs — before any file is created or shard
	// started. The knobs are mix-independent, so validating one mix covers
	// them all; fleet.Run revalidates, so the library rejects the same
	// inputs when driven directly.
	baseCfg := func(mix fleet.Mix) fleet.Config {
		return fleet.Config{
			Seed:     *seed,
			UEs:      *ues,
			Shards:   *shards,
			Mix:      mix,
			WindowS:  *window,
			SessionS: *session,
			Stream:   *stream,
		}
	}
	if err := baseCfg(mixes[0]).Validate(); err != nil {
		fmt.Fprintln(stderr, "fgfleet:", err)
		return 2
	}

	// The trace streams through the Spill; the collector gathers metrics.
	var root *obs.Obs
	if *metricsOut != "" {
		root = obs.New()
	}

	// Open the trace artifact up front; each campaign stitches its records
	// into it. finishTrace drains the tail and closes the file.
	finishTrace := func() error { return nil }
	var spill *fleet.Spill
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "fgfleet:", err)
			return 1
		}
		// Releases the file on the failure paths; finishTrace closes it,
		// checked, on success.
		defer f.Close()
		if *traceFormat == "colf" {
			spill = fleet.NewColfSpill(f, "fleet")
		} else {
			spill = fleet.NewJSONLSpill(f, "fleet")
		}
		finishTrace = func() error {
			err := spill.Close()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("writing %s: %w", *traceOut, err)
			}
			return nil
		}
	}

	type campaign struct {
		res  *fleet.Result
		wall time.Duration
	}
	runs := make([]campaign, 0, len(mixes))
	rs := make([]*fleet.Result, 0, len(mixes))
	for _, mix := range mixes {
		sub := obs.Sub(root)
		cfg := baseCfg(mix)
		cfg.Obs = sub
		if spill != nil {
			cfg.Spill = spill
			cfg.SpillTags = []obs.Field{obs.S("mix", mix.String())}
		}
		start := time.Now()
		r, err := fleet.Run(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "fgfleet:", err)
			return 1
		}
		wall := time.Since(start)
		root.MergeTagged(sub, obs.S("mix", mix.String()))
		runs = append(runs, campaign{res: r, wall: wall})
		rs = append(rs, r)
	}

	var table fmt.Stringer
	if *stream {
		table = experiments.FleetStreamTable(rs)
	} else {
		table = experiments.FleetTable(rs)
	}
	if _, err := fmt.Fprintln(stdout, table); err != nil {
		// A stdout write error (closed pipe, full disk) must fail the run:
		// a truncated table must never look like a successful one.
		fmt.Fprintln(stderr, "fgfleet: writing table:", err)
		return 1
	}

	if err := finishTrace(); err != nil {
		fmt.Fprintln(stderr, "fgfleet:", err)
		return 1
	}
	if *metricsOut != "" {
		err := writeArtifact(*metricsOut, func(f *os.File) error {
			return obs.WriteMetricsCSV(f, "fleet", root.Meter())
		})
		if err != nil {
			fmt.Fprintln(stderr, "fgfleet:", err)
			return 1
		}
	}
	if *stats {
		w := tabwriter.NewWriter(stderr, 2, 0, 2, ' ', 0)
		fmt.Fprintln(w, "mix\tues\twall\tUEs/s\tevents")
		var events uint64
		var wall time.Duration
		for _, c := range runs {
			events += c.res.Events
			wall += c.wall
			n := campaignUEs(c.res)
			fmt.Fprintf(w, "%s\t%d\t%v\t%.0f\t%d\n",
				c.res.Cfg.Mix, n, c.wall.Round(time.Millisecond),
				float64(n)/c.wall.Seconds(), c.res.Events)
		}
		fmt.Fprintf(w, "total\t%d\t%v\t%.0f\t%d\n",
			len(mixes)**ues, wall.Round(time.Millisecond),
			float64(len(mixes)**ues)/wall.Seconds(), events)
		if err := w.Flush(); err != nil {
			fmt.Fprintln(stderr, "fgfleet:", err)
		}
	}
	return 0
}

// campaignUEs returns the population size of a completed campaign in either
// mode (the results slice is nil in stream mode).
func campaignUEs(r *fleet.Result) int {
	if r.Stream != nil {
		return int(r.Stream.UEs())
	}
	return len(r.UEs)
}

// writeArtifact creates path and streams one artifact into it, reporting
// any create, write, or close error (a truncated artifact must never look
// like a successful one).
func writeArtifact(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
