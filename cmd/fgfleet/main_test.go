package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fivegsim/internal/obs/colf"
)

// runCLI drives the full CLI in-process and captures its streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestFlagValidation: bad knob values fail fast with exit 2 and a message
// naming the problem, before any campaign starts or file is created.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"ues zero", []string{"-ues", "0"}, "UEs"},
		{"ues negative", []string{"-ues", "-5"}, "UEs"},
		{"shards negative", []string{"-shards", "-1"}, "Shards"},
		{"window negative", []string{"-window", "-3"}, "WindowS"},
		{"session negative", []string{"-session", "-1"}, "SessionS"},
		{"window nan", []string{"-window", "NaN"}, "WindowS"},
		{"unknown mix", []string{"-mix", "nope"}, "unknown mix"},
		{"bad trace format", []string{"-trace-format", "xml"}, "-trace-format"},
		{"spill flag removed", []string{"-spill", "central"}, "-spill"},
		{"unknown arg", []string{"frobnicate"}, "unknown argument"},
		{"colf2json removed", []string{"colf2json", "x"}, "unknown argument"},
		{"undefined flag", []string{"-frobnicate"}, "frobnicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
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

// TestValidationPrecedesArtifacts: a bad -ues must not leave a truncated
// trace file behind.
func TestValidationPrecedesArtifacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	code, _, _ := runCLI(t, "-ues", "0", "-trace", path)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("trace file was created despite invalid flags (stat err: %v)", err)
	}
}

// TestSmallCampaign: a tiny campaign succeeds and prints the fleet table.
func TestSmallCampaign(t *testing.T) {
	code, stdout, stderr := runCLI(t,
		"-ues", "19", "-mix", "mixed", "-window", "20", "-session", "8")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "mixed") {
		t.Errorf("stdout does not contain the mix row:\n%s", stdout)
	}
}

// TestColf2JSON: the colf trace artifact decodes to the exact jsonl
// artifact of the same campaign.
func TestColf2JSON(t *testing.T) {
	dir := t.TempDir()
	colfPath := filepath.Join(dir, "t.colf")
	jsonlPath := filepath.Join(dir, "t.jsonl")
	common := []string{"-ues", "37", "-mix", "mixed", "-window", "20", "-session", "8"}
	if code, _, stderr := runCLI(t, append(common, "-trace", colfPath, "-trace-format", "colf")...); code != 0 {
		t.Fatalf("colf campaign exit = %d (stderr: %s)", code, stderr)
	}
	if code, _, stderr := runCLI(t, append(common, "-trace", jsonlPath)...); code != 0 {
		t.Fatalf("jsonl campaign exit = %d (stderr: %s)", code, stderr)
	}
	want, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(colfPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got bytes.Buffer
	if err := colf.DecodeToJSON(f, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("decoded colf trace differs from the jsonl artifact (%d vs %d bytes)", got.Len(), len(want))
	}
}

// TestArtifactWriteErrors: an artifact that cannot be written fails the run
// with exit 1 and a message naming the path, and the trace file is closed
// on the failure path: a second failing run leaves no descriptor behind.
func TestArtifactWriteErrors(t *testing.T) {
	const full = "/dev/full" // every write fails with ENOSPC
	if _, err := os.Stat(full); err != nil {
		t.Skipf("%s unavailable: %v", full, err)
	}
	common := []string{"-ues", "37", "-mix", "mixed", "-window", "20", "-session", "8"}
	for _, extra := range [][]string{
		{"-trace", full},
		{"-trace", full, "-trace-format", "colf"},
		{"-metrics", full},
	} {
		name := strings.Join(extra, " ")
		args := append(append([]string(nil), common...), extra...)
		fail := func() {
			code, _, stderr := runCLI(t, args...)
			if code != 1 {
				t.Errorf("%s: exit = %d, want 1 (stderr: %s)", name, code, stderr)
			}
			if !strings.Contains(stderr, full) {
				t.Errorf("%s: stderr %q does not name %s", name, stderr, full)
			}
		}
		fail()
		before, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			continue // no /proc: the exit-status checks above still ran
		}
		fail()
		after, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Errorf("%s: %d open descriptors after a failing run, %d before", name, len(after), len(before))
		}
	}
}

// TestStatsLeavesArtifactsAlone: -stats only adds a summary on stderr, one
// row per mix plus a total. Stdout and both artifact files are the same
// bytes with and without it.
func TestStatsLeavesArtifactsAlone(t *testing.T) {
	runOnce := func(stats bool) (stdout, stderr string, files [2][]byte) {
		dir := t.TempDir()
		paths := [2]string{filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.csv")}
		args := []string{"-ues", "37", "-mix", "all", "-window", "20", "-session", "8",
			"-trace", paths[0], "-metrics", paths[1]}
		if stats {
			args = append(args, "-stats")
		}
		code, stdout, stderr := runCLI(t, args...)
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
		t.Error("-stats changed the table on stdout")
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
	want := []string{"mix", "low-band", "mmwave", "mixed", "total"}
	if len(rows) != len(want) {
		t.Fatalf("-stats printed %d lines, want %d:\n%s", len(rows), len(want), statsErr)
	}
	for i, row := range rows {
		if f := strings.Fields(row); len(f) == 0 || f[0] != want[i] {
			t.Errorf("-stats line %d = %q, want it to start with %q", i, row, want[i])
		}
	}
}
