//go:build go1.24

// The tests set the working directory with t.Chdir, which Go 1.24 added;
// the build line keeps older toolchains compiling the rest of the module.

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fivegsim/internal/lint"
)

// maporderFixture is a module whose expected.txt lists the maporder
// diagnostics of its four packages; fgvet's default suite reports exactly
// those.
const maporderFixture = "../../internal/lint/testdata/maporder"

// runIn drives fgvet in-process with dir as the working directory.
func runIn(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	t.Chdir(dir)
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// goldenFor returns the fixture's expected diagnostics in the given
// module-relative directories, in golden order.
func goldenFor(t *testing.T, dirs ...string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(maporderFixture, "expected.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		for _, dir := range dirs {
			if strings.HasPrefix(line, dir+"/") {
				b.WriteString(line)
				break
			}
		}
	}
	return b.String()
}

// TestPatternsResolveFromWorkingDirectory: `.` and relative patterns name
// the packages the go tool names from the working directory, while the
// whole module is still loaded (positions stay module-relative).
func TestPatternsResolveFromWorkingDirectory(t *testing.T) {
	cases := []struct {
		name  string
		dir   string
		args  []string
		dirs  []string
		lines int
	}{
		{"dot in a package directory", "internal/iterkeys", []string{"."},
			[]string{"internal/iterkeys"}, 4},
		{"relative patterns from a subdirectory", "internal", []string{"./render", "./colfenc/..."},
			[]string{"internal/colfenc", "internal/render"}, 5},
		{"whole module by default", "internal/render", nil,
			[]string{"internal"}, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := goldenFor(t, tc.dirs...)
			if n := strings.Count(want, "\n"); n != tc.lines {
				t.Fatalf("golden holds %d lines for %v, want %d", n, tc.dirs, tc.lines)
			}
			code, stdout, stderr := runIn(t, filepath.Join(maporderFixture, tc.dir), tc.args...)
			if code != 1 {
				t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
			}
			if stdout != want {
				t.Errorf("diagnostics\n-- got --\n%s-- want --\n%s", stdout, want)
			}
		})
	}
}

// TestUsageErrors: a pattern that names no loaded package and an unknown
// check both exit 2 with a message and no diagnostics.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"pattern matches nothing", []string{"./nosuch/..."}, "no packages matched ./nosuch/..."},
		{"unknown check", []string{"-checks", "nosuch"}, `unknown check "nosuch"`},
		{"undefined flag", []string{"-frobnicate"}, "frobnicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runIn(t, maporderFixture, tc.args...)
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

// TestList: -list prints one line per check of the suite, in suite order.
func TestList(t *testing.T) {
	code, stdout, stderr := runIn(t, maporderFixture, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	all := lint.AllChecks()
	if len(lines) != 8 || len(all) != 8 {
		t.Fatalf("-list printed %d lines for %d checks, want the eight-check suite:\n%s", len(lines), len(all), stdout)
	}
	for i, c := range all {
		if name, _, _ := strings.Cut(lines[i], " "); name != c.Name {
			t.Errorf("line %d names %q, want %q", i, name, c.Name)
		}
	}
}
