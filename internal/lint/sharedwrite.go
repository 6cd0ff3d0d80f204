package lint

import (
	"go/ast"
	"go/types"
)

// SharedWriteCheck flags writes to package-level variables — assignment,
// ++/--, delete — from any function reachable from a go statement. The
// fleet shards and the experiment pool run module code concurrently; a
// package-level write on those paths is at best a data race and at worst a
// shard-count-dependent result, either of which breaks the byte-identity
// contract. Writes through method calls (sync.Map.Store, atomic.Add) are
// deliberately not flagged: the synchronized containers are the sanctioned
// escape hatch, and their uses are reviewed at the declaration.
func SharedWriteCheck() *Check {
	c := &Check{
		Name: "sharedwrite",
		Doc:  "forbid writes to package-level variables from goroutine-reachable code",
	}
	c.Run = func(pass *Pass) {
		for _, n := range pass.Mod.SpawnReachable() {
			if n.Pkg != pass.Pkg {
				continue // each node is reported by its owning package's pass
			}
			checkNodeWrites(pass, n)
		}
	}
	return c
}

// checkNodeWrites scans one call-graph node's body (literals nested inside
// are their own nodes and are skipped) for package-level writes.
func checkNodeWrites(pass *Pass, n *CGNode) {
	info := pass.Pkg.Info
	report := func(pos ast.Node, v *types.Var, how string) {
		pass.Reportf(pos.Pos(),
			"package-level var %s is %s inside %s, which is reachable from goroutine spawn %s; shared writes break shard/worker-count determinism",
			v.Name(), how, n.Name(), n.Via.Name())
	}
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range nd.Lhs {
				if v := pkgLevelTarget(info, lhs); v != nil {
					report(nd, v, "assigned")
				}
			}
		case *ast.IncDecStmt:
			if v := pkgLevelTarget(info, nd.X); v != nil {
				report(nd, v, "mutated")
			}
		case *ast.CallExpr:
			fn, ok := ast.Unparen(nd.Fun).(*ast.Ident)
			if !ok || info.Uses[fn] != types.Universe.Lookup("delete") || len(nd.Args) != 2 {
				return true
			}
			if v := pkgLevelTarget(info, nd.Args[0]); v != nil {
				report(nd, v, "mutated (delete)")
			}
		}
		return true
	})
}

// pkgLevelTarget unwraps an lvalue (index, deref, field selection, parens)
// to its root object and returns it if it is a package-level variable.
// A field write through a package-level pointer (cache.m[k] = v) counts:
// the shared state is what matters, not the syntax of the final selector.
func pkgLevelTarget(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return pkgLevelVar(info.Uses[x.Sel])
				}
			}
			e = x.X
		case *ast.Ident:
			return pkgLevelVar(info.Uses[x])
		default:
			return nil
		}
	}
}

// pkgLevelVar filters an object down to a package-scoped variable.
func pkgLevelVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}
