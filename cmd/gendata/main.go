// Command gendata materialises the study's datasets as CSV files, mirroring
// the released artifact's layout: throughput traces, walking power traces,
// a Speedtest campaign, the web corpus with its 4G/5G measurements, and the
// driving handoff logs. Deterministic given -seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fivegsim/internal/dataset"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags and streams in, exit status out
// (2 for usage errors, 1 for a failed write).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gendata", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("out", "data", "output directory")
	seed := fs.Int64("seed", 1, "random seed")
	small := fs.Bool("small", false, "generate a reduced sample dataset")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		// Parsing stops at the first argument, so flags after it would be
		// ignored: `-out d x -small` would write the full dataset.
		fmt.Fprintf(stderr, "gendata: unknown argument %q (gendata takes flags only)\n", fs.Arg(0))
		return 2
	}

	o := dataset.Options{Seed: *seed}
	if *small {
		o = dataset.Options{Traces5G: 10, Traces4G: 10, TraceLenS: 120,
			WalkMinutes: 5, Sites: 100, SpeedtestRepeats: 2, Seed: *seed}
	}
	if err := dataset.WriteAll(*dir, o); err != nil {
		fmt.Fprintln(stderr, "gendata:", err)
		return 1
	}
	fmt.Fprintf(stdout, "dataset written under %s/ (traces, walking, speedtest, web, handoff)\n", *dir)
	return 0
}
