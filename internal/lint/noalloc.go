package lint

import (
	"go/ast"
	"strings"
)

const noallocDirective = "//fgvet:noalloc"

// NoAllocCheck verifies //fgvet:noalloc annotations against the compiler's
// own escape analysis (Package.Escapes: the `-gcflags='-m -m'` output of
// the loader's one go list run). The annotation, placed in a function's doc
// comment, asserts the 0-allocs/op contract the hot-path benchmarks pin
// (one fleet session, abr Simulate/MPC.Select, disabled obs emit, colf
// encoder inner loops): any value the compiler heap-allocates inside the
// function's lexical body — including its closures — is a diagnostic at
// the allocation site. Cold paths inside an annotated function (panic
// formatting, lazy growth) carry a line-scoped
// `//fgvet:allow noalloc <reason>` like any other finding.
//
// Unlike the benchmarks, the gate is input-independent: it proves the
// function body *cannot* allocate, not that one benchmark's inputs happened
// not to.
func NoAllocCheck() *Check {
	c := &Check{
		Name: "noalloc",
		Doc:  "verify //fgvet:noalloc functions against compiler escape analysis (zero heap allocations)",
	}
	c.Run = func(pass *Pass) {
		type span struct {
			fd       *ast.FuncDecl
			file     string
			from, to int
		}
		var spans []span
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasNoallocDirective(fd.Doc) {
					continue
				}
				if fd.Body == nil {
					pass.Reportf(fd.Pos(), "//fgvet:noalloc on a bodyless declaration proves nothing; annotate the implementation")
					continue
				}
				from := pass.Pkg.Fset.Position(fd.Pos())
				to := pass.Pkg.Fset.Position(fd.End())
				spans = append(spans, span{fd: fd, file: from.Filename, from: from.Line, to: to.Line})
			}
		}
		for _, s := range spans {
			for _, site := range pass.Pkg.Escapes {
				if site.Pos.Filename != s.file || site.Pos.Line < s.from || site.Pos.Line > s.to {
					continue
				}
				pass.ReportAt(site.Pos,
					"%s is marked //fgvet:noalloc but the compiler reports: %s", s.fd.Name.Name, site.Msg)
			}
		}
	}
	return c
}

// hasNoallocDirective reports whether a doc comment carries the
// //fgvet:noalloc directive (bare, or followed by explanatory text).
func hasNoallocDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, noallocDirective)
		if ok && (rest == "" || rest[0] == ' ') {
			return true
		}
	}
	return false
}
