// Command fgvet runs the repo's determinism analyzer suite (internal/lint)
// over the module: eight stdlib-only checks — four single-function scans,
// three whole-module analyses over a typed call graph and the compiler's
// escape analysis, and an audit of stale suppressions — that keep every
// experiment a pure function of (experiment, seed).
//
// Usage:
//
//	fgvet [-checks walltime,maporder,...] [-json] [-list] [patterns]
//
// With no patterns fgvet reports on the whole module that holds the
// working directory. Patterns are the go tool's own (`./...`, `.`,
// `./internal/abr/...`, an import path), and the go tool resolves them
// from the working directory; they restrict the reported packages, while
// the whole module is still typechecked, since checks need cross-package
// type information. -json replaces the file:line:col lines with a
// machine-readable array on stdout (CI archives it next to the bench
// JSONs). Exit status is 1 when any diagnostic is reported, 2 on usage or
// load errors.
//
// Findings are suppressed line-by-line with
//
//	//fgvet:allow <check> <reason>
//
// on the flagged line or the line directly above it. The allowaudit check
// reports any such directive that no longer suppresses anything.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"fivegsim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fgvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	list := fs.Bool("list", false, "list the available checks and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fgvet [-checks list] [-json] [-list] [patterns]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := lint.AllChecks()
	if *list {
		for _, c := range all {
			fmt.Fprintf(stdout, "%-14s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	checks := all
	if *checksFlag != "" {
		byName := make(map[string]*lint.Check, len(all))
		for _, c := range all {
			byName[c.Name] = c
		}
		checks = nil
		for _, name := range strings.Split(*checksFlag, ",") {
			c, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "fgvet: unknown check %q (try -list)\n", name)
				return 2
			}
			checks = append(checks, c)
		}
	}

	gomod, err := goTool("env", "GOMOD")
	if err != nil {
		fmt.Fprintf(stderr, "fgvet: %v\n", err)
		return 2
	}
	gomod = strings.TrimSpace(gomod)
	if gomod == "" || gomod == os.DevNull {
		fmt.Fprintln(stderr, "fgvet: the working directory is not inside a module")
		return 2
	}
	pkgs, err := lint.Load(filepath.Dir(gomod))
	if err != nil {
		fmt.Fprintf(stderr, "fgvet: %v\n", err)
		return 2
	}
	pkgs, err = filterPackages(pkgs, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "fgvet: %v\n", err)
		return 2
	}

	diags := lint.Run(pkgs, checks)
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "fgvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fgvet: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonDiag is the machine-readable diagnostic shape: stable field names,
// module-root-relative file paths, 1-based positions.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// writeJSON renders the diagnostics as one indented JSON array (an empty
// run emits [], so the artifact is always valid JSON).
func writeJSON(w io.Writer, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Check:   d.Check,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// filterPackages keeps the loaded packages that the go tool names for
// patterns, resolved from the working directory. With no patterns every
// package is kept.
func filterPackages(pkgs []*lint.Package, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	out, err := goTool(append([]string{"list", "-e", "-f", "{{.ImportPath}}", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	named := make(map[string]bool)
	for _, path := range strings.Fields(out) {
		named[path] = true
	}
	var kept []*lint.Package
	for _, pkg := range pkgs {
		if named[pkg.Path] {
			kept = append(kept, pkg)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("no packages matched %s", strings.Join(patterns, " "))
	}
	return kept, nil
}

// goTool runs the go command in the working directory and returns its
// standard output.
func goTool(args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}
