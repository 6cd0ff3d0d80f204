package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FpFoldCheck flags order-sensitive floating-point accumulation over
// cross-shard or cross-worker results. Float addition does not associate:
// summing per-shard values in whatever order they arrive makes the final
// ulps a function of the shard count, which is exactly the drift the fleet
// byte-identity gates keep catching at runtime. The deterministic merge
// points — a serial reduce in UE-id or shard order, an int64 nanounit
// sum — fold in a fixed order or over integers and are naturally exempt.
//
// Two patterns are flagged: (1) a float += fold inside a range over a
// channel (receive order is scheduling-dependent) or over a value whose
// name marks it as per-shard/per-worker data; (2) a call passing a
// shard/worker collection to a function whose summary says it
// float-accumulates over that parameter (interprocedural, transitive).
func FpFoldCheck() *Check {
	c := &Check{
		Name: "fpfold",
		Doc:  "forbid order-sensitive float accumulation over cross-shard/cross-worker results",
	}
	c.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(nd ast.Node) bool {
				switch nd := nd.(type) {
				case *ast.RangeStmt:
					why, suspicious := suspiciousRange(info, nd)
					if !suspicious {
						return true
					}
					if acc := floatAccumIn(info, nd.Body); acc != nil {
						pass.Reportf(acc.Pos(),
							"float accumulation over %s is order-sensitive: float addition does not associate, so the result depends on iteration order; merge deterministically (a serial reduce in UE-id or shard order, or int64 nanounits)", why)
					}
				case *ast.CallExpr:
					callee := calleeFunc(info, nd)
					if callee == nil {
						return true
					}
					for ai, arg := range nd.Args {
						name := exprString(arg)
						if !shardishName(name) {
							continue
						}
						if pass.Mod.FloatAccumParam(callee, ai) {
							pass.Reportf(nd.Pos(),
								"%s float-accumulates over its parameter %d in iteration order, and %s is per-shard/per-worker data; merge deterministically before or instead of the fold", callee.Name(), ai, name)
						}
					}
				}
				return true
			})
		}
	}
	return c
}

// suspiciousRange classifies a range statement whose iteration order can
// differ across runs or shard/worker counts for accumulation purposes:
// channels (receive order is scheduling-dependent) and collections whose
// names mark them as per-shard/per-worker.
func suspiciousRange(info *types.Info, rs *ast.RangeStmt) (string, bool) {
	if t := info.TypeOf(rs.X); t != nil {
		if _, ok := t.Underlying().(*types.Chan); ok {
			return "a channel (receive order is scheduling-dependent)", true
		}
	}
	if name := exprString(rs.X); shardishName(name) {
		return name + " (per-shard/per-worker results)", true
	}
	return "", false
}

// shardishName reports whether a rendered expression names cross-shard or
// cross-worker data.
func shardishName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "shard") || strings.Contains(l, "worker")
}
