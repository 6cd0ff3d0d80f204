// Command fgfleet runs city-scale fleet campaigns: 100k-1M UEs streaming
// over a tower deployment, sharded across cores, reporting population
// QoE/power/throughput CDFs per band mix.
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
//	-shards N       parallel shards (0 = GOMAXPROCS)
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
// fgfleet parses its flags into a serve.Scenario of kind fleet and runs it
// through serve.Run, the runner fgservd serves fleet scenarios with, so
// served and CLI artifacts are the same bytes by construction. Invalid
// knob values (-ues 0, negative -shards, a negative or non-finite
// -window/-session, an unknown -mix or -trace-format) fail fast with exit
// status 2 before any file is created or shard started: Scenario.Validate
// and fleet.Config.Validate refuse them for every front end alike.
//
// The trace artifact streams to FILE as each campaign completes: after the
// shards join, fleet.Run hands the campaign's sampled sessions to
// fleet.Spill, which encodes them serially. Trace memory is one campaign's
// sampled sessions, about 512 at the default stride whatever -ues is. The
// fleet determinism contract applies: stdout and both artifacts are
// byte-identical for any -shards value, including 1, in both formats and
// both modes. Only -stats output (wall-clock) varies between runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"fivegsim/internal/serve"
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
	shards := fs.Int("shards", 0, "parallel shards (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "campaign seed")
	mixName := fs.String("mix", "all", "deployment mix: low-band, mmwave, mixed, or all")
	window := fs.Float64("window", 600, "arrival window (sim seconds)")
	session := fs.Float64("session", 32, "video session length (sim seconds)")
	stream := fs.Bool("stream", false, "stream mode: O(shards) campaign memory, sketch-based percentiles")
	traceOut := fs.String("trace", "", "write sampled per-session trace records to this file")
	traceFormat := "jsonl"
	fs.Func("trace-format", `trace encoding: jsonl or colf (default "jsonl")`, func(v string) error {
		traceFormat = v
		return serve.CheckTraceFormat(v)
	})
	metricsOut := fs.String("metrics", "", "write population histograms and counters (CSV) to this file")
	stats := fs.Bool("stats", false, "print wall-clock UEs/sec and event counts to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fgfleet: unknown argument %q (fgfleet takes flags only)\n", fs.Arg(0))
		return 2
	}

	sc := &serve.Scenario{
		Kind:        "fleet",
		Seed:        seed,
		TraceFormat: traceFormat,
		Fleet: &serve.FleetScenario{
			UEs:      *ues,
			Shards:   *shards,
			Mix:      *mixName,
			WindowS:  *window,
			SessionS: *session,
			Stream:   *stream,
		},
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(stderr, "fgfleet:", err)
		return 2
	}
	rep, err := serve.RunFiles(context.Background(), sc, stdout, *traceOut, *metricsOut)
	if err != nil {
		fmt.Fprintln(stderr, "fgfleet:", err)
		return 1
	}
	if *stats {
		w := tabwriter.NewWriter(stderr, 2, 0, 2, ' ', 0)
		fmt.Fprintln(w, "mix\tues\twall\tUEs/s\tevents")
		var events uint64
		var wall time.Duration
		for i, r := range rep.Fleet {
			events += r.Events
			wall += rep.FleetWall[i]
			fmt.Fprintf(w, "%s\t%d\t%v\t%.0f\t%d\n",
				r.Cfg.Mix, r.Cfg.UEs, rep.FleetWall[i].Round(time.Millisecond),
				float64(r.Cfg.UEs)/rep.FleetWall[i].Seconds(), r.Events)
		}
		n := len(rep.Fleet) * *ues
		fmt.Fprintf(w, "total\t%d\t%v\t%.0f\t%d\n",
			n, wall.Round(time.Millisecond), float64(n)/wall.Seconds(), events)
		if err := w.Flush(); err != nil {
			fmt.Fprintln(stderr, "fgfleet:", err)
		}
	}
	return 0
}
