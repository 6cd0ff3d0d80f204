package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runCLI drives the full CLI in-process and captures its streams.
func runCLI(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errw)
	return code, out.String(), errw.String()
}

// TestUsageErrors: bad invocations exit 2 with a message, running nothing.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"no args", nil, "usage"},
		{"unknown subcommand", []string{"frobnicate"}, "usage"},
		{"run without ids", []string{"run"}, "experiment id"},
		{"negative parallel", []string{"run", "-parallel", "-2", "table7"}, "-parallel"},
		{"bad trace format", []string{"-trace-format", "xml", "all"}, "-trace-format"},
		{"bad trace format after subcommand", []string{"all", "-trace-format", "xml"}, "-trace-format"},
		{"undefined flag", []string{"-frobnicate", "all"}, "frobnicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, "", tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("stdout = %q, want empty on a usage error", stdout)
			}
			if !strings.Contains(stderr, tc.wantMsg) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.wantMsg)
			}
		})
	}
}

// TestList: the list subcommand prints registered ids, one per line.
func TestList(t *testing.T) {
	code, stdout, stderr := runCLI(t, "", "list")
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "table7\n") || !strings.Contains(stdout, "fig11\n") {
		t.Errorf("list output missing known ids:\n%s", stdout)
	}
}

// TestRunFlagsEitherSide: flags before the subcommand and flags right after
// it (before the ids) produce the same table bytes — the double-parse
// contract.
func TestRunFlagsEitherSide(t *testing.T) {
	code, before, stderr := runCLI(t, "", "-quick", "-seed", "3", "run", "table7")
	if code != 0 {
		t.Fatalf("flags-before exit = %d (stderr: %s)", code, stderr)
	}
	code, after, stderr := runCLI(t, "", "run", "-quick", "-seed", "3", "table7")
	if code != 0 {
		t.Fatalf("flags-after exit = %d (stderr: %s)", code, stderr)
	}
	if before == "" || before != after {
		t.Errorf("flag placement changed the output:\n--- before\n%s--- after\n%s", before, after)
	}
}

// TestArtifacts: -trace/-metrics files are written and the colf trace
// decodes (via colf2json, file and stdin) to the jsonl artifact bytes.
func TestArtifacts(t *testing.T) {
	dir := t.TempDir()
	colfPath := filepath.Join(dir, "t.colf")
	jsonlPath := filepath.Join(dir, "t.jsonl")
	metricsPath := filepath.Join(dir, "m.csv")
	if code, _, stderr := runCLI(t, "", "-quick",
		"-trace", colfPath, "-trace-format", "colf", "-metrics", metricsPath,
		"run", "fig11"); code != 0 {
		t.Fatalf("colf run exit = %d (stderr: %s)", code, stderr)
	}
	if code, _, stderr := runCLI(t, "", "-quick", "-trace", jsonlPath, "run", "fig11"); code != 0 {
		t.Fatalf("jsonl run exit = %d (stderr: %s)", code, stderr)
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(metrics), "exp,kind,name,field,value\n") {
		t.Errorf("metrics CSV missing header: %q", string(metrics[:min(len(metrics), 40)]))
	}
	wantB, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}

	code, got, stderr := runCLI(t, "", "colf2json", colfPath)
	if code != 0 {
		t.Fatalf("colf2json file exit = %d (stderr: %s)", code, stderr)
	}
	if got != string(wantB) {
		t.Errorf("colf2json(file) differs from the jsonl artifact")
	}
	colfB, err := os.ReadFile(colfPath)
	if err != nil {
		t.Fatal(err)
	}
	code, got, stderr = runCLI(t, string(colfB), "colf2json")
	if code != 0 {
		t.Fatalf("colf2json stdin exit = %d (stderr: %s)", code, stderr)
	}
	if got != string(wantB) {
		t.Errorf("colf2json(stdin) differs from the jsonl artifact")
	}

	if code, _, _ := runCLI(t, "", "colf2json", filepath.Join(dir, "missing.colf")); code != 1 {
		t.Errorf("colf2json missing file exit = %d, want 1", code)
	}
	if code, _, _ := runCLI(t, "not a colf stream", "colf2json"); code != 1 {
		t.Errorf("colf2json garbage stdin exit = %d, want 1", code)
	}
	if code, _, _ := runCLI(t, "", "colf2json", "a", "b"); code != 2 {
		t.Errorf("colf2json two args exit = %d, want 2", code)
	}
}

// TestStatsLeavesArtifactsAlone: -stats only adds a summary on stderr, one
// row per experiment plus a total. Stdout and both artifact files are the
// same bytes with and without it, and the total of the records column is
// the number of lines in the JSONL trace. table2 is there because it
// traces; table7 and fig11 emit no trace records.
func TestStatsLeavesArtifactsAlone(t *testing.T) {
	ids := []string{"table7", "fig11", "table2"}
	runOnce := func(stats bool) (stdout, stderr string, files [2][]byte) {
		dir := t.TempDir()
		paths := [2]string{filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.csv")}
		args := []string{"-quick", "-trace", paths[0], "-metrics", paths[1]}
		if stats {
			args = append(args, "-stats")
		}
		code, stdout, stderr := runCLI(t, "", append(append(args, "run"), ids...)...)
		if code != 0 {
			t.Fatalf("stats=%t: exit = %d (stderr: %s)", stats, code, stderr)
		}
		for i, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = b
		}
		return stdout, stderr, files
	}
	plainOut, plainErr, plainFiles := runOnce(false)
	statsOut, statsErr, statsFiles := runOnce(true)
	if plainOut == "" || statsOut != plainOut {
		t.Error("-stats changed the tables on stdout")
	}
	for i, name := range []string{"trace", "metrics"} {
		if len(plainFiles[i]) == 0 || !bytes.Equal(plainFiles[i], statsFiles[i]) {
			t.Errorf("-stats changed the %s artifact", name)
		}
	}
	if plainErr != "" {
		t.Errorf("stderr without -stats = %q, want empty", plainErr)
	}
	rows := strings.Split(strings.TrimSuffix(statsErr, "\n"), "\n")
	want := append(append([]string{"experiment"}, ids...), "total")
	if len(rows) != len(want) {
		t.Fatalf("-stats printed %d lines, want %d:\n%s", len(rows), len(want), statsErr)
	}
	for i, row := range rows {
		if f := strings.Fields(row); len(f) == 0 || f[0] != want[i] {
			t.Errorf("-stats line %d = %q, want it to start with %q", i, row, want[i])
		}
	}
	total := strings.Fields(rows[len(rows)-1])
	lines := bytes.Count(plainFiles[0], []byte("\n"))
	if got := total[len(total)-1]; got != strconv.Itoa(lines) {
		t.Errorf("-stats records total = %s, want the trace's %d lines:\n%s", got, lines, statsErr)
	}
}
