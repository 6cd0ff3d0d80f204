// Command fgrepro regenerates the tables and figures of "A Variegated Look
// at 5G in the Wild" (SIGCOMM 2021) from the simulation substrate.
//
// Usage:
//
//	fgrepro list                 # list experiment ids
//	fgrepro run fig11 table7     # run specific experiments
//	fgrepro all                  # run everything, on all cores
//	fgrepro all -parallel 1      # run everything, one experiment at a time
//	fgrepro colf2json t.colf     # decode a colf trace to JSON Lines
//
// Flags:
//
//	-seed N         random seed (default 1)
//	-quick          reduced repeats for a fast pass
//	-parallel N     run N experiments concurrently (default 0 = GOMAXPROCS;
//	                1 = serial)
//	-stats          per-experiment wall time, event counts and trace
//	                records (0 without -trace or -metrics) on stderr
//	-trace FILE     write sim-time trace records to FILE
//	-trace-format F trace encoding: jsonl (JSON Lines) or colf (columnar
//	                binary; decode with the colf2json subcommand)
//	-metrics FILE   write the metrics snapshot (CSV) to FILE
//
// Invalid flag values (negative -parallel, an unknown -trace-format) fail
// fast with exit status 2 before any experiment runs; an unknown experiment
// id exits 1, also before anything runs or any file is created.
//
// run and all parse their flags into a serve.Scenario of kind battery and
// run it through serve.Run, the runner fgservd serves batteries with, so
// served and CLI artifacts are the same bytes by construction.
//
// Output is byte-identical for any -parallel value: experiments fan out
// over a worker pool, one experiment per worker at a time, but are
// reassembled in sorted id order, and every experiment is deterministic
// given -seed. The -trace/-metrics artifacts share that contract —
// enabling them never changes the tables, and the artifact bytes are
// identical for any worker count, in either trace format. Decoding a colf
// trace with colf2json reproduces the jsonl artifact byte for byte.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"fivegsim/internal/experiments"
	"fivegsim/internal/obs/colf"
	"fivegsim/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: flags and streams in, exit status out.
// Every failure path returns (2 for usage errors, 1 for runtime errors)
// instead of calling os.Exit, so deferred closes always execute and tests
// can drive the full CLI in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fgrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "random seed")
	quick := fs.Bool("quick", false, "reduced repeats for a fast pass")
	parallel := fs.Int("parallel", 0, "experiments to run concurrently (0 = GOMAXPROCS, 1 = serial)")
	stats := fs.Bool("stats", false, "print per-experiment wall time, event counts and trace records to stderr")
	traceOut := fs.String("trace", "", "write sim-time trace records to this file")
	traceFormat := "jsonl"
	fs.Func("trace-format", "trace encoding: jsonl or colf", func(v string) error {
		traceFormat = v
		return serve.CheckTraceFormat(v)
	})
	metricsOut := fs.String("metrics", "", "write the metrics snapshot (CSV) to this file")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sub := fs.Args()
	if len(sub) == 0 {
		usage(stderr)
		return 2
	}
	// Accept flags on either side of the subcommand (`fgrepro -quick all`
	// and `fgrepro all -parallel 4` both work): the standard flag package
	// stops at the first positional argument, so re-parse what follows it.
	if err := fs.Parse(sub[1:]); err != nil {
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "fgrepro: -parallel must be >= 0 (0 = GOMAXPROCS), got %d\n", *parallel)
		return 2
	}
	sc := &serve.Scenario{Kind: "battery", Seed: seed, Quick: *quick, TraceFormat: traceFormat, Workers: *parallel}
	rest := fs.Args()
	switch sub[0] {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	case "all":
		return runBattery(sc, *stats, *traceOut, *metricsOut, stdout, stderr)
	case "run":
		if len(rest) == 0 {
			fmt.Fprintln(stderr, "fgrepro run: need at least one experiment id")
			return 2
		}
		sc.Experiments = rest
		return runBattery(sc, *stats, *traceOut, *metricsOut, stdout, stderr)
	case "colf2json":
		return colf2json(rest, stdin, stdout, stderr)
	default:
		usage(stderr)
		return 2
	}
}

// colf2json decodes a colf trace artifact back to JSON Lines on stdout:
// byte-identical to what -trace-format=jsonl would have written for the
// same records. "-" (or no argument) reads stdin. The input file's close
// error is checked explicitly — the old deferred Close was silently skipped
// by os.Exit on every path.
func colf2json(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 1 {
		fmt.Fprintln(stderr, `usage: fgrepro colf2json [file.colf]  ("-" or no argument reads stdin)`)
		return 2
	}
	in := stdin
	var src *os.File
	if len(args) == 1 && args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			fmt.Fprintln(stderr, "fgrepro:", err)
			return 1
		}
		src = f
		in = f
	}
	err := colf.DecodeToJSON(in, stdout)
	if src != nil {
		if cerr := src.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "fgrepro:", err)
		return 1
	}
	return 0
}

// runBattery runs the battery scenario: its tables to stdout, its
// trace/metrics artifacts to their files, then an optional per-experiment
// summary on stderr.
func runBattery(sc *serve.Scenario, stats bool, traceOut, metricsOut string, stdout, stderr io.Writer) int {
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(stderr, "fgrepro:", err)
		return 1
	}
	rep, err := serve.RunFiles(context.Background(), sc, stdout, traceOut, metricsOut)
	if err != nil {
		fmt.Fprintln(stderr, "fgrepro:", err)
		return 1
	}
	if stats {
		w := tabwriter.NewWriter(stderr, 2, 0, 2, ' ', 0)
		fmt.Fprintln(w, "experiment\twall\tevents\trecords")
		var events uint64
		var records int
		for _, r := range rep.Battery {
			n := r.Obs.Trace().Len()
			events += r.Events
			records += n
			fmt.Fprintf(w, "%s\t%v\t%d\t%d\n", r.ID, r.Wall.Round(10*time.Microsecond), r.Events, n)
		}
		fmt.Fprintf(w, "total\t\t%d\t%d\n", events, records)
		if err := w.Flush(); err != nil {
			fmt.Fprintln(stderr, "fgrepro:", err)
		}
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `fgrepro regenerates the paper's tables and figures.

usage:
  fgrepro [flags] list
  fgrepro [flags] run <id>...
  fgrepro [flags] all
  fgrepro colf2json [file.colf]

flags:
  -seed N         random seed (default 1)
  -quick          reduced repeats for a fast pass
  -parallel N     experiments to run concurrently (default 0 = GOMAXPROCS;
                  1 = serial)
  -stats          per-experiment wall time, event counts and trace
                  records (0 without -trace or -metrics) on stderr
  -trace FILE     write sim-time trace records to FILE
  -trace-format F trace encoding: jsonl or colf (default jsonl)
  -metrics FILE   write the metrics snapshot (CSV) to FILE
`)
}
