package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Module bundles every loaded package of one module with the two
// whole-program artifacts the interprocedural checks share: a typed call
// graph (sharedwrite reachability, maporder/fpfold callee summaries) and
// the compiler's escape-analysis table (noalloc). Both are built lazily
// and at most once per Run, so single-function checks pay nothing.
type Module struct {
	Root string
	Pkgs []*Package

	built bool
	nodes map[*types.Func]*CGNode
	lits  map[*ast.FuncLit]*CGNode
	// order is node creation order — packages sorted by import path, files
	// and declarations in source order — so every graph traversal below is
	// deterministic without position sorting.
	order []*CGNode

	reachBuilt bool
	reach      []*CGNode

	impls map[*types.Func][]*types.Func // abstract iface method -> concrete methods

	// valueFuncs are the functions the module uses as values: declared
	// functions and methods referenced outside call position (stored,
	// passed, returned, method values) and literals not called in place,
	// in first-use order. They are the possible targets of a call through
	// a function value.
	valueFuncs []*CGNode
	valueSet   map[*CGNode]bool

	sorts  paramSummary // SortsParam summaries
	accums paramSummary // FloatAccumParam summaries

	escDone bool
	escErr  error
	esc     map[string][]EscapeSite
}

// NewModule wraps the loaded packages; the call graph is built on first use.
func NewModule(pkgs []*Package) *Module {
	root := ""
	if len(pkgs) > 0 {
		root = pkgs[0].Root
	}
	return &Module{Root: root, Pkgs: pkgs}
}

// CGNode is one function in the call graph: a declared function/method or a
// function literal. Edges are possibilistic — every reference to a function
// (call, method value, closure creation) is an edge, because a referenced
// function can run wherever the reference flows — and a call through a
// function value is an edge to every function that value could hold.
type CGNode struct {
	Fn   *types.Func   // nil for function literals
	Lit  *ast.FuncLit  // nil for declared functions
	Decl *ast.FuncDecl // nil for function literals
	Pkg  *Package
	Body *ast.BlockStmt

	Callees []*CGNode
	// SpawnRoot marks functions invoked by a go statement: the entry points
	// of concurrent execution.
	SpawnRoot bool
	// Via is the spawn root through which reachability first found this
	// node (self for roots); it names the goroutine in diagnostics.
	Via *CGNode

	calleeSet map[*CGNode]bool
}

// Name renders the node for diagnostics.
func (n *CGNode) Name() string {
	if n.Fn != nil {
		return n.Fn.FullName()
	}
	return fmt.Sprintf("func literal at %s", n.Pkg.Fset.Position(n.Lit.Pos()))
}

func (n *CGNode) addCallee(c *CGNode) {
	if c == nil || c == n || n.calleeSet[c] {
		return
	}
	if n.calleeSet == nil {
		n.calleeSet = make(map[*CGNode]bool)
	}
	n.calleeSet[c] = true
	n.Callees = append(n.Callees, c)
}

// build constructs nodes for every declared function, collects the
// functions used as values, then walks every body adding edges and marking
// go-statement targets as spawn roots.
func (m *Module) build() {
	if m.built {
		return
	}
	m.built = true
	m.nodes = make(map[*types.Func]*CGNode)
	m.lits = make(map[*ast.FuncLit]*CGNode)
	m.impls = make(map[*types.Func][]*types.Func)
	m.valueSet = make(map[*CGNode]bool)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &CGNode{Fn: fn, Decl: fd, Pkg: pkg, Body: fd.Body}
				m.nodes[fn] = n
				m.order = append(m.order, n)
			}
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			m.collectValueFuncs(pkg, f)
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if ok && d.Body != nil {
						m.addEdges(m.nodes[fn], pkg, d.Body)
					}
				case *ast.GenDecl:
					// A literal in a package-level initializer has no
					// enclosing function; its body still has edges.
					ast.Inspect(d, func(n ast.Node) bool {
						if lit, ok := n.(*ast.FuncLit); ok {
							m.addEdges(m.litNode(pkg, lit), pkg, lit.Body)
							return false
						}
						return true
					})
				}
			}
		}
	}
}

// collectValueFuncs records every module function one file references
// outside call position, package-level initializers included (a registry
// map filled at init time is the typical case), and every function literal
// it does not call in place.
func (m *Module) collectValueFuncs(pkg *Package, f *ast.File) {
	called := make(map[*ast.Ident]bool)
	calledLit := make(map[*ast.FuncLit]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr: // visited before its Fun, so the mark is in time
			if id := funcIdent(n.Fun); id != nil {
				called[id] = true
			}
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				calledLit[lit] = true
			}
		case *ast.FuncLit:
			if !calledLit[n] {
				m.addValueFunc(m.litNode(pkg, n))
			}
		case *ast.Ident:
			fn, ok := pkg.Info.Uses[n].(*types.Func)
			if !ok || called[n] {
				return true
			}
			for _, t := range m.resolve(fn) {
				m.addValueFunc(t)
			}
		}
		return true
	})
}

// addValueFunc appends n to valueFuncs once.
func (m *Module) addValueFunc(n *CGNode) {
	if !m.valueSet[n] {
		m.valueSet[n] = true
		m.valueFuncs = append(m.valueFuncs, n)
	}
}

// funcIdent returns the identifier naming a call's function (f, pkg.F,
// x.M, or an instantiation of either), or nil for any other expression.
func funcIdent(fun ast.Expr) *ast.Ident {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	case *ast.IndexExpr:
		return funcIdent(fun.X)
	case *ast.IndexListExpr:
		return funcIdent(fun.X)
	}
	return nil
}

// valueCallees resolves a call through a function value (a variable, a
// field, a slice or map element, a call result) to every function in
// valueFuncs whose signature is identical to the value's type: any of them
// may be what the value holds. Static calls, conversions, builtins and
// literals called in place return nil; their edges come from the
// identifier or the literal itself.
func (m *Module) valueCallees(pkg *Package, fun ast.Expr) []*CGNode {
	fun = ast.Unparen(fun)
	if _, lit := fun.(*ast.FuncLit); lit {
		return nil
	}
	if id := funcIdent(fun); id != nil {
		if _, static := pkg.Info.Uses[id].(*types.Func); static {
			return nil
		}
	}
	tv, ok := pkg.Info.Types[fun]
	if !ok || !tv.IsValue() {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*CGNode
	for _, n := range m.valueFuncs {
		t := n.Pkg.Info.TypeOf(n.Lit)
		if n.Fn != nil {
			t = n.Fn.Type()
		}
		if types.Identical(t, sig) { // receivers are ignored
			out = append(out, n)
		}
	}
	return out
}

// litNode returns (creating if needed) the node for a function literal.
func (m *Module) litNode(pkg *Package, lit *ast.FuncLit) *CGNode {
	if n, ok := m.lits[lit]; ok {
		return n
	}
	n := &CGNode{Lit: lit, Pkg: pkg, Body: lit.Body}
	m.lits[lit] = n
	m.order = append(m.order, n)
	return n
}

// addEdges walks one function body (not descending into nested literals —
// each literal is its own node) recording callees and spawn roots.
func (m *Module) addEdges(cur *CGNode, pkg *Package, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ln := m.litNode(pkg, n)
			cur.addCallee(ln)
			m.addEdges(ln, pkg, n.Body)
			return false
		case *ast.GoStmt:
			for _, t := range m.targetsOf(pkg, n.Call.Fun) {
				t.SpawnRoot = true
			}
		case *ast.CallExpr:
			for _, t := range m.valueCallees(pkg, n.Fun) {
				cur.addCallee(t)
			}
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
				for _, t := range m.resolve(fn) {
					cur.addCallee(t)
				}
			}
		}
		return true
	})
}

// targetsOf resolves the function expression of a go statement to its
// possible nodes. A literal resolves to its own node; an identifier or
// selector naming a function resolves through the type info (with
// interface methods expanded to every module implementation); a function
// value fans out like any call through one (valueCallees).
func (m *Module) targetsOf(pkg *Package, fun ast.Expr) []*CGNode {
	if lit, ok := ast.Unparen(fun).(*ast.FuncLit); ok {
		return []*CGNode{m.litNode(pkg, lit)}
	}
	if id := funcIdent(fun); id != nil {
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
			return m.resolve(fn)
		}
	}
	return m.valueCallees(pkg, fun)
}

// resolve maps a referenced *types.Func to call-graph nodes. Concrete
// module functions map to their node; abstract interface methods expand,
// CHA-style, to every module implementation (a dynamic dispatch can land on
// any of them); functions outside the module have no node.
func (m *Module) resolve(fn *types.Func) []*CGNode {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, abstract := sig.Recv().Type().Underlying().(*types.Interface); abstract {
			var out []*CGNode
			for _, impl := range m.implementers(fn, sig) {
				if n := m.nodes[impl]; n != nil {
					out = append(out, n)
				}
			}
			return out
		}
	}
	if n := m.nodes[fn]; n != nil {
		return []*CGNode{n}
	}
	return nil
}

// implementers lists the concrete module methods an abstract interface
// method can dispatch to, memoized per abstract method.
func (m *Module) implementers(fn *types.Func, sig *types.Signature) []*types.Func {
	if impls, ok := m.impls[fn]; ok {
		return impls
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	var impls []*types.Func
	if iface != nil {
		for _, pkg := range m.Pkgs {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() { // Names() is sorted
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				if _, ok := named.Underlying().(*types.Interface); ok {
					continue
				}
				if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, fn.Pkg(), fn.Name())
				if impl, ok := obj.(*types.Func); ok {
					impls = append(impls, impl)
				}
			}
		}
	}
	m.impls[fn] = impls
	return impls
}

// SpawnReachable returns every node reachable from a go-statement target,
// in deterministic BFS order, each tagged (Via) with the spawn root that
// reached it. This is the sharedwrite check's domain: code on this list
// runs, or can run, off the main goroutine.
func (m *Module) SpawnReachable() []*CGNode {
	m.build()
	if m.reachBuilt {
		return m.reach
	}
	m.reachBuilt = true
	seen := make(map[*CGNode]bool)
	var queue []*CGNode
	for _, n := range m.order {
		if n.SpawnRoot && !seen[n] {
			seen[n] = true
			n.Via = n
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		m.reach = append(m.reach, n)
		for _, c := range n.Callees {
			if !seen[c] {
				seen[c] = true
				c.Via = n.Via
				queue = append(queue, c)
			}
		}
	}
	return m.reach
}

// SortsParam reports whether fn sorts its i-th parameter: its body passes
// the parameter to sort/slices, or forwards it at a position a callee sorts
// (transitively, cycle-safe). maporder uses this to accept the
// harvest-then-sort-in-helper idiom without a suppression.
func (m *Module) SortsParam(fn *types.Func, i int) bool {
	return m.paramHas(&m.sorts, sortedArgs, fn, i)
}

// sortedArgs is SortsParam's direct predicate: the arguments of a
// sort/slices call.
func sortedArgs(info *types.Info, nd ast.Node) []ast.Expr {
	if call, ok := nd.(*ast.CallExpr); ok && isSortCall(info, call) {
		return call.Args
	}
	return nil
}

// FloatAccumParam reports whether fn folds floating-point values of its
// i-th parameter into an accumulator by ranging over it — the shape that
// makes the call site's argument order part of the numeric result. fpfold
// uses this to flag helpers fed cross-shard/cross-worker collections.
func (m *Module) FloatAccumParam(fn *types.Func, i int) bool {
	return m.paramHas(&m.accums, accumulatedArgs, fn, i)
}

// accumulatedArgs is FloatAccumParam's direct predicate: the collection of
// a range loop whose body float-accumulates.
func accumulatedArgs(info *types.Info, nd ast.Node) []ast.Expr {
	if rs, ok := nd.(*ast.RangeStmt); ok && floatAccumIn(info, rs.Body) != nil {
		return []ast.Expr{rs.X}
	}
	return nil
}

// paramSummary memoizes one per-parameter property of module functions,
// as parameter-index sets; active guards the functions being summarized.
type paramSummary struct {
	memo   map[*types.Func]map[int]bool
	active map[*types.Func]bool
}

// directArgs is a summary's own predicate: the expressions of one body
// node that have the property by themselves.
type directArgs func(info *types.Info, nd ast.Node) []ast.Expr

// paramHas reports whether fn has a summarized property at parameter i:
// the parameter is one of the expressions direct returns for a node of
// fn's body, or fn forwards it at a call position whose callee has the
// property (transitively). A recursive cycle answers false, conservatively.
func (m *Module) paramHas(s *paramSummary, direct directArgs, fn *types.Func, i int) bool {
	m.build()
	if s.memo == nil {
		s.memo = make(map[*types.Func]map[int]bool)
		s.active = make(map[*types.Func]bool)
	}
	if sum, ok := s.memo[fn]; ok {
		return sum[i]
	}
	if s.active[fn] {
		return false
	}
	s.active[fn] = true
	defer delete(s.active, fn)
	sum := m.summarize(s, direct, fn)
	s.memo[fn] = sum
	return sum[i]
}

// summarize computes fn's parameter-index set for paramHas.
func (m *Module) summarize(s *paramSummary, direct directArgs, fn *types.Func) map[int]bool {
	out := make(map[int]bool)
	n := m.nodes[fn]
	if n == nil || n.Decl == nil {
		return out
	}
	info := n.Pkg.Info
	params := paramObjects(info, n.Decl)
	if len(params) == 0 {
		return out
	}
	paramAt := func(e ast.Expr) int {
		root, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		return paramIndex(params, info.Uses[root])
	}
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		for _, e := range direct(info, nd) {
			if pi := paramAt(e); pi >= 0 {
				out[pi] = true
			}
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil || callee == fn {
			return true
		}
		for ai, arg := range call.Args {
			if pi := paramAt(arg); pi >= 0 && m.paramHas(s, direct, callee, ai) {
				out[pi] = true
			}
		}
		return true
	})
	return out
}

// paramObjects collects the declared parameter objects of a FuncDecl in
// signature order.
func paramObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// paramIndex finds obj among params, or -1.
func paramIndex(params []types.Object, obj types.Object) int {
	if obj == nil {
		return -1
	}
	for i, p := range params {
		if p != nil && p == obj {
			return i
		}
	}
	return -1
}

// isSortCall reports whether call invokes the sort or slices package.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgIdent, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[pkgIdent].(*types.PkgName)
	if !ok {
		return false
	}
	p := pn.Imported().Path()
	return p == "sort" || p == "slices"
}

// floatAccumIn finds the first order-sensitive float accumulation in a
// block: a `+=` (or `x = x + e`) whose target has floating-point type.
// Returns the offending statement or nil.
func floatAccumIn(info *types.Info, body *ast.BlockStmt) ast.Stmt {
	var found ast.Stmt
	ast.Inspect(body, func(nd ast.Node) bool {
		if found != nil {
			return false
		}
		asg, ok := nd.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch asg.Tok {
		case token.ADD_ASSIGN:
			if len(asg.Lhs) == 1 && isFloat(info.TypeOf(asg.Lhs[0])) {
				found = asg
				return false
			}
		case token.ASSIGN:
			// x = x + e (either operand order)
			if len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || !isFloat(info.TypeOf(asg.Lhs[0])) {
				return true
			}
			bin, ok := ast.Unparen(asg.Rhs[0]).(*ast.BinaryExpr)
			if !ok || bin.Op != token.ADD {
				return true
			}
			lhs := exprString(asg.Lhs[0])
			if lhs != "" && (exprString(bin.X) == lhs || exprString(bin.Y) == lhs) {
				found = asg
				return false
			}
		}
		return true
	})
	return found
}

// isFloat reports whether t's underlying type is float32/float64.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
