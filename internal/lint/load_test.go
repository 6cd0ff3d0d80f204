package lint

import (
	"path/filepath"
	"testing"
)

// loaderFixture loads testdata/loader: a module with a build-constrained
// package and a nested testdata module containing Go that cannot
// typecheck.
func loaderFixture(t *testing.T) []*Package {
	t.Helper()
	return loadFixture(t, filepath.Join("testdata", "loader"))
}

// TestLoaderSkipsFixtureTrees proves the loader never descends into
// testdata directories: the nested module under the fixture holds a file
// that cannot typecheck, so loading succeeds only if the tree was
// skipped, and the package list contains exactly the one real package.
func TestLoaderSkipsFixtureTrees(t *testing.T) {
	pkgs := loaderFixture(t)
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want exactly 1 (the nested testdata module must be skipped)", len(pkgs))
	}
	if pkgs[0].Path != "fixture/internal/tagged" {
		t.Errorf("loaded package %s, want fixture/internal/tagged", pkgs[0].Path)
	}
}

// TestLoaderBuildTags asserts the go tool's file selection: the
// always-satisfied go1.1 file is typechecked, while the impossible-tag file
// and the _plan9.go file (each would redeclare impl) are excluded, and two
// loads see the identical file set — the determinism the diagnostic
// positions depend on.
func TestLoaderBuildTags(t *testing.T) {
	fileNames := func(pkgs []*Package) []string {
		var names []string
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				names = append(names, pkg.Fset.Position(f.Pos()).Filename)
			}
		}
		return names
	}
	first := fileNames(loaderFixture(t))
	want := []string{
		"internal/tagged/common.go",
		"internal/tagged/current.go",
	}
	if len(first) != len(want) {
		t.Fatalf("loaded files %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Errorf("file[%d] = %s, want %s", i, first[i], want[i])
		}
	}
	second := fileNames(loaderFixture(t))
	for i := range first {
		if second[i] != first[i] {
			t.Errorf("second load diverged at file[%d]: %s vs %s", i, second[i], first[i])
		}
	}
}

// TestPackageRoot pins the Root plumbing the interprocedural checks use to
// invoke the go tool: every package reports the module root it came from.
func TestPackageRoot(t *testing.T) {
	abs, err := filepath.Abs(filepath.Join("testdata", "loader"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range loaderFixture(t) {
		if pkg.Root != abs {
			t.Errorf("package %s has Root %q, want %q", pkg.Path, pkg.Root, abs)
		}
	}
}
