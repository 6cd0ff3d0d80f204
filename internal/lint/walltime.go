package lint

import (
	"go/ast"
	"go/types"
)

// walltimeForbidden lists the package time functions that read or schedule
// against the wall clock. Simulation code must get time from the model's
// own simulated clock, or a parallel run would stop being a pure function
// of (experiment, seed).
var walltimeForbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTicker": true,
	"NewTimer":  true,
}

// WalltimeCheck flags wall-clock reads in internal/ (simulation-facing)
// packages. The one legitimate use — wall-time worker stats in the
// parallel experiment runner — carries an //fgvet:allow annotation.
func WalltimeCheck() *Check {
	c := &Check{
		Name: "walltime",
		Doc:  "forbid time.Now/time.Since/tickers in internal/ packages; simulated time must come from the model's own clock",
	}
	c.Run = func(pass *Pass) {
		if !internalPath(pass.Pkg.Path) {
			return
		}
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
					return true
				}
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true // method on time.Time etc., not a clock read
				}
				if walltimeForbidden[obj.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s bypasses the simulated clock; take time from the model's own clock (or annotate //fgvet:allow walltime <reason>)",
						obj.Name())
				}
				return true
			})
		}
	}
	return c
}
