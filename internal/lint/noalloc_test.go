package lint

import (
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// noallocPins freezes the real tree's //fgvet:noalloc coverage: every
// function whose 0-allocs/op contract a benchmark pins must carry the
// annotation, so removing one (silently dropping the compile-time gate) is
// a test failure, and a new annotation must be added here deliberately.
var noallocPins = []string{
	"fivegsim/internal/abr.HarmonicPredictor.Predict",
	"fivegsim/internal/abr.MPC.Select",
	"fivegsim/internal/abr.SimulateScratch",
	"fivegsim/internal/fleet.shard.download",
	"fivegsim/internal/fleet.shard.finalize",
	"fivegsim/internal/fleet.shard.selectTrack",
	"fivegsim/internal/fleet.shard.session",
	"fivegsim/internal/fleet.shard.stepChunk",
	"fivegsim/internal/obs.Ev",
	"fivegsim/internal/obs.F",
	"fivegsim/internal/obs.Histogram.Observe",
	"fivegsim/internal/obs.Metrics.Add",
	"fivegsim/internal/obs.Metrics.Inc",
	"fivegsim/internal/obs.Record.With",
	"fivegsim/internal/obs.S",
	"fivegsim/internal/obs.Span",
	"fivegsim/internal/obs.Tracer.Emit",
	"fivegsim/internal/obs/colf.Writer.Add",
	"fivegsim/internal/obs/colf.Writer.flushBlock",
	"fivegsim/internal/obs/colf.Writer.intern",
	"fivegsim/internal/obs/colf.Writer.internBytes",
}

// annotatedName renders pkgpath[.Recv].Name for a declared function.
func annotatedName(pkg *Package, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			name = id.Name + "." + name
		}
	}
	return pkg.Path + "." + name
}

// TestNoallocPins diffs the annotations actually present in the tree
// against the pinned contract, in both directions.
func TestNoallocPins(t *testing.T) {
	pkgs := loadFixture(t, filepath.Join("..", ".."))
	got := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasNoallocDirective(fd.Doc) {
					continue
				}
				got[annotatedName(pkg, fd)] = true
			}
		}
	}
	want := make(map[string]bool, len(noallocPins))
	for _, name := range noallocPins {
		want[name] = true
	}
	for _, name := range noallocPins {
		if !got[name] {
			t.Errorf("pinned //fgvet:noalloc annotation missing from the tree: %s", name)
		}
	}
	var extra []string
	for name := range got {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		t.Errorf("unpinned //fgvet:noalloc annotation %s: add it to noallocPins to make the gate deliberate", name)
	}
	if t.Failed() {
		var all []string
		for name := range got {
			all = append(all, name)
		}
		sort.Strings(all)
		t.Logf("annotations present:\n%s", strings.Join(all, "\n"))
	}
}
