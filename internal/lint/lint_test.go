package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden expected-diagnostics files")

// checksFor selects the suite a fixture module exercises: the check named
// after the directory, or everything for the directive fixtures (suppress
// needs every check's findings; allowaudit judges directives against the
// selected set, so staleness is only meaningful under the full suite).
func checksFor(t *testing.T, fixture string) []*Check {
	t.Helper()
	if fixture == "suppress" || fixture == "allowaudit" {
		return AllChecks()
	}
	for _, c := range AllChecks() {
		if c.Name == fixture {
			return []*Check{c}
		}
	}
	t.Fatalf("no check named after fixture %q", fixture)
	return nil
}

// loadFixture typechecks one testdata module.
func loadFixture(t *testing.T, dir string) []*Package {
	t.Helper()
	pkgs, err := Load(dir)
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s contains no packages", dir)
	}
	return pkgs
}

// TestGolden drives every check over its fixture module and compares the
// rendered diagnostics to the checked-in expected.txt. Run with -update to
// rewrite the goldens after changing a check or fixture.
func TestGolden(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "loader" {
			continue // the loader fixture belongs to load_test.go
		}
		fixture := e.Name()
		t.Run(fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", fixture)
			diags := Run(loadFixture(t, dir), checksFor(t, fixture))
			var lines []string
			for _, d := range diags {
				lines = append(lines, d.String())
			}
			got := strings.Join(lines, "\n") + "\n"
			golden := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run go test -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s\n-- got --\n%s-- want --\n%s", fixture, got, want)
			}
		})
	}
}

// TestFixturesAreNotSilent guards the harness itself: every fixture except
// the all-suppressed demos must produce at least one diagnostic, so a
// regression that silences a check cannot hide behind an empty golden.
func TestFixturesAreNotSilent(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "loader" {
			continue
		}
		fixture := e.Name()
		dir := filepath.Join("testdata", fixture)
		diags := Run(loadFixture(t, dir), checksFor(t, fixture))
		if len(diags) == 0 {
			t.Errorf("fixture %s produced no diagnostics; a violating fixture must fail", fixture)
		}
	}
}

// TestRealTreeClean asserts the invariant the CI gate enforces: the repo
// itself carries zero fgvet diagnostics (modulo its annotated allowances).
func TestRealTreeClean(t *testing.T) {
	pkgs := loadFixture(t, filepath.Join("..", ".."))
	diags := Run(pkgs, AllChecks())
	for _, d := range diags {
		t.Errorf("unexpected diagnostic on the real tree: %s", d)
	}
}

// TestSuppressionScope pins the line-scoping rule: a directive suppresses
// on its own line and the line below, nothing else.
func TestSuppressionScope(t *testing.T) {
	allows := map[allowKey]map[string]*allowEntry{
		{file: "f.go", line: 10}: {"walltime": {}},
	}
	cases := []struct {
		line  int
		check string
		want  bool
	}{
		{10, "walltime", true},
		{11, "walltime", true},
		{12, "walltime", false},
		{9, "walltime", false},
		{10, "maporder", false},
	}
	for _, c := range cases {
		d := Diagnostic{Check: c.check}
		d.Pos.Filename = "f.go"
		d.Pos.Line = c.line
		if got := suppressed(allows, d); got != c.want {
			t.Errorf("suppressed(line=%d, check=%s) = %v, want %v", c.line, c.check, got, c.want)
		}
	}
}

// TestCheckDocs keeps the -list output meaningful.
func TestCheckDocs(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range AllChecks() {
		if c.Name == "" || c.Doc == "" || c.Run == nil {
			t.Errorf("check %+v is missing a name, doc, or runner", c)
		}
		if seen[c.Name] {
			t.Errorf("duplicate check name %q", c.Name)
		}
		seen[c.Name] = true
	}
	if len(seen) < 8 {
		t.Errorf("expected the eight-check suite, got %d", len(seen))
	}
}
