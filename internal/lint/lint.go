// Package lint is fgvet's analyzer suite: a stdlib-only (go/ast, go/parser,
// go/token, go/types — no x/tools) set of checks that mechanically enforce
// the repo's determinism invariants. The paper's figures are reproducible
// only because every run is a pure function of (experiment, seed); these
// checks turn the conventions that guarantee that — model-clock time,
// seed-threaded RNGs, sorted map iteration, no silently dropped errors —
// into compile-time diagnostics.
//
// A finding can be suppressed line-by-line with
//
//	//fgvet:allow <check> <reason>
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory: an unexplained suppression is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned relative to the module root.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the conventional file:line:col: check: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Check is a single named analyzer.
type Check struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (package, check) execution and collects its findings.
type Pass struct {
	Pkg *Package
	// Mod is the whole loaded module: the shared home of the typed call
	// graph and the compiler escape-analysis table the interprocedural
	// checks (sharedwrite, fpfold, noalloc, maporder's sort-in-callee)
	// consult. Both are built lazily, once per Run.
	Mod   *Module
	check *Check
	diags *[]Diagnostic
}

// Reportf records a diagnostic for the current check at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportAt is Reportf for positions that do not come from the fileset —
// the noalloc check anchors diagnostics at compiler-reported positions.
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     pos,
		Check:   p.check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// AllChecks returns the full suite in stable order.
func AllChecks() []*Check {
	return []*Check{
		WalltimeCheck(),
		SeededRandCheck(),
		MapOrderCheck(),
		ErrDropCheck(),
		SharedWriteCheck(),
		FpFoldCheck(),
		NoAllocCheck(),
		AllowAuditCheck(),
	}
}

// Run applies checks to pkgs, drops findings suppressed by a valid
// //fgvet:allow directive, appends directive-misuse diagnostics (and, when
// the allowaudit check is selected, stale-suppression diagnostics), and
// returns everything sorted by position then check name.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	known := make(map[string]bool, len(checks))
	auditing := false
	for _, c := range checks {
		known[c.Name] = true
		if c.Name == allowAuditName {
			auditing = true
		}
	}
	mod := NewModule(pkgs)
	var diags []Diagnostic
	var directiveDiags []Diagnostic
	allows := make(map[allowKey]map[string]*allowEntry)
	var allowList []*allowEntry // collection order: packages, files, lines
	for _, pkg := range pkgs {
		for _, c := range checks {
			pass := &Pass{Pkg: pkg, Mod: mod, check: c, diags: &diags}
			c.Run(pass)
		}
		collectAllows(pkg, allows, &allowList, &directiveDiags)
	}
	kept := directiveDiags
	for _, d := range diags {
		if suppressed(allows, d) {
			continue
		}
		kept = append(kept, d)
	}
	if auditing {
		kept = append(kept, auditAllows(allowList, known)...)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return kept
}

// allowKey identifies one source line that carries an allow directive.
type allowKey struct {
	file string
	line int
}

// allowEntry is one valid //fgvet:allow directive: where it sits, which
// check it names, and whether it suppressed anything during this Run (the
// allowaudit input).
type allowEntry struct {
	pos   token.Position
	check string
	used  bool
}

const allowPrefix = "//fgvet:allow"

// knownCheckNames is the directive vocabulary: every check of the full
// suite, whether or not it was selected for this Run. A subset run (fgvet
// -checks=walltime) must not report a perfectly good //fgvet:allow noalloc
// as unknown.
var knownCheckNames = func() map[string]bool {
	m := make(map[string]bool)
	for _, c := range AllChecks() {
		m[c.Name] = true
	}
	return m
}()

// collectAllows scans a package's comments for //fgvet:allow directives,
// recording valid ones in allows and reporting malformed ones (unknown
// check, missing reason) as diagnostics under the "allow" pseudo-check.
func collectAllows(pkg *Package, allows map[allowKey]map[string]*allowEntry, list *[]*allowEntry, diags *[]Diagnostic) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				name, reason, _ := strings.Cut(rest, " ")
				switch {
				case name == "":
					*diags = append(*diags, Diagnostic{Pos: pos, Check: "allow",
						Message: "malformed directive: want //fgvet:allow <check> <reason>"})
				case !knownCheckNames[name]:
					*diags = append(*diags, Diagnostic{Pos: pos, Check: "allow",
						Message: fmt.Sprintf("unknown check %q in //fgvet:allow directive", name)})
				case strings.TrimSpace(reason) == "":
					*diags = append(*diags, Diagnostic{Pos: pos, Check: "allow",
						Message: fmt.Sprintf("//fgvet:allow %s needs a reason: suppressions must be explained", name)})
				default:
					k := allowKey{file: pos.Filename, line: pos.Line}
					if allows[k] == nil {
						allows[k] = make(map[string]*allowEntry)
					}
					e := &allowEntry{pos: pos, check: name}
					allows[k][name] = e
					*list = append(*list, e)
				}
			}
		}
	}
}

// suppressed reports whether d is covered by an allow directive on its own
// line or the line directly above, marking the directive used.
func suppressed(allows map[allowKey]map[string]*allowEntry, d Diagnostic) bool {
	if e := allows[allowKey{d.Pos.Filename, d.Pos.Line}][d.Check]; e != nil {
		e.used = true
		return true
	}
	if e := allows[allowKey{d.Pos.Filename, d.Pos.Line - 1}][d.Check]; e != nil {
		e.used = true
		return true
	}
	return false
}

// auditAllows returns a diagnostic for every valid allow directive that
// suppressed nothing. Only directives naming a check that actually ran are
// judged: a subset run cannot tell whether an allow for an unselected check
// is stale. Suppressions therefore cannot rot — when the code a directive
// excused is fixed or deleted, the directive itself becomes the finding.
func auditAllows(list []*allowEntry, ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range list {
		if e.used || !ran[e.check] {
			continue
		}
		out = append(out, Diagnostic{Pos: e.pos, Check: allowAuditName,
			Message: fmt.Sprintf("stale suppression: //fgvet:allow %s no longer suppresses any diagnostic; delete it", e.check)})
	}
	return out
}

// inspectStack walks root depth-first calling fn with each node and the
// stack of its ancestors (outermost first, not including n itself). fn's
// return value controls descent, as with ast.Inspect.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// internalPath reports whether a package import path sits under the
// module's internal/ tree (the simulation-facing code).
func internalPath(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}
