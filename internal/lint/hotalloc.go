package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"rmscale/internal/lint/analysis"
	"rmscale/internal/lint/callgraph"
)

// HotAlloc statically checks the hot paths whose allocation budgets
// tests pin at run time (the testing.AllocsPerRun tests in
// internal/sim, internal/grid, internal/rms and internal/service; each
// directive's reason names the test that measures its path). A
// function marked with a
//
//	//lint:hotpath <reason>
//
// doc-comment directive — the fel.go kernel ops, the Ticker, the
// engine's per-event message fabric, the service dedup fast path — is
// a hot root; the analyzer flags heap-allocation constructs in the
// root and in every callee reachable through statically resolved
// (concrete, single-target) calls:
//
//   - make, new, map and slice composite literals, &T{} literals;
//   - append that grows a different slice than it reads (the
//     self-append `s = append(s, x)` scratch idiom is allowed);
//   - func literals (closure allocation) — except immediately invoked
//     ones, which do not escape;
//   - variadic calls that materialize an argument slice, unless the
//     call sits under the documented `if t.On() { ... }` tracer guard;
//   - interface boxing: concrete arguments to interface parameters,
//     conversions to interface types, panic with a concrete value;
//   - string <-> []byte / []rune conversions, which copy.
//
// Interface dispatch is deliberately not expanded here (unlike
// detertaint): marking one engine call hot must not conscript all
// seven RMS policy implementations into the zero-alloc regime — the
// run-time allocation tests still cover dynamic targets. A construct
// that is deliberate (a one-time cold-start allocation, an amortized
// growth) carries //lint:allow hotalloc <reason> at the site.
func HotAlloc() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "hotalloc",
		Doc:  "flag heap-allocation constructs in //lint:hotpath functions and their statically resolved callees",
	}
	a.Run = func(p *analysis.Pass) error {
		g := passGraph(p)
		hot := hotOf(g)
		for _, n := range g.Nodes() {
			if n.Pkg.Pkg != p.Pkg {
				continue
			}
			root, ok := hot.root[n]
			if !ok {
				continue
			}
			checkHotBody(p, n, root)
		}
		return nil
	}
	return a
}

// hotState maps each hot node to the marked root that made it hot.
type hotState struct {
	root map[*callgraph.Node]*callgraph.Node
}

// hotOf computes (once per graph, memoized) the hot set: nodes whose
// doc comment carries //lint:hotpath, plus everything reachable from
// them through concrete single-target calls.
func hotOf(g *callgraph.Graph) *hotState {
	if h, ok := g.Memo["hotalloc"].(*hotState); ok {
		return h
	}
	h := &hotState{root: map[*callgraph.Node]*callgraph.Node{}}
	g.Memo["hotalloc"] = h
	var work []*callgraph.Node
	for _, n := range g.Nodes() {
		if hotpathMarked(n.Decl) {
			h.root[n] = n
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, call := range n.Calls {
			if call.Interface || len(call.Targets) != 1 {
				continue
			}
			t := call.Targets[0]
			if _, done := h.root[t]; done {
				continue
			}
			h.root[t] = h.root[n]
			work = append(work, t)
		}
	}
	return h
}

// hotpathMarked reports whether the declaration's doc comment carries
// a //lint:hotpath directive. Reason validation happens in
// parseDirectives, on the production suppression path.
func hotpathMarked(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if verb, _, _ := cutDirective(c.Text); verb == "hotpath" {
			return true
		}
	}
	return false
}

// checkHotBody flags allocation constructs in one hot function.
func checkHotBody(p *analysis.Pass, n *callgraph.Node, root *callgraph.Node) {
	where := "in //lint:hotpath function " + callgraph.FuncLabel(n.Fn)
	if root != n {
		where = "on the hot path rooted at //lint:hotpath " + callgraph.FuncLabel(root.Fn) +
			" (via " + callgraph.FuncLabel(n.Fn) + ")"
	}
	parents := buildParents(n.File)
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.CallExpr:
			checkHotCall(p, nd, parents, where)
		case *ast.CompositeLit:
			t := p.TypeOf(nd)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				p.Reportf(nd.Pos(), "map literal allocates %s", where)
			case *types.Slice:
				p.Reportf(nd.Pos(), "slice literal allocates a backing array %s", where)
			}
		case *ast.UnaryExpr:
			if nd.Op == token.AND {
				if _, ok := nd.X.(*ast.CompositeLit); ok {
					p.Reportf(nd.Pos(), "&composite literal escapes to the heap %s", where)
				}
			}
		case *ast.FuncLit:
			if call, ok := parents[nd].(*ast.CallExpr); !ok || call.Fun != ast.Expr(nd) {
				p.Reportf(nd.Pos(), "func literal allocates a closure %s", where)
			}
		}
		return true
	})
}

// checkHotCall flags the allocating call shapes: builtins, variadic
// materialization, interface boxing, copying conversions.
func checkHotCall(p *analysis.Pass, call *ast.CallExpr, parents map[ast.Node]ast.Node, where string) {
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		checkHotConversion(p, call, tv.Type, where)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := p.Info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make":
				p.Reportf(call.Pos(), "make allocates %s", where)
			case "new":
				p.Reportf(call.Pos(), "new allocates %s", where)
			case "append":
				if !selfAppend(call, parents) {
					p.Reportf(call.Pos(), "append grows a new backing array %s (self-append scratch reuse is exempt)", where)
				}
			case "panic":
				if len(call.Args) == 1 && boxes(p, call.Args[0]) {
					p.Reportf(call.Pos(), "panic boxes its argument into an interface %s", where)
				}
			}
			return
		}
	}
	sigT := p.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
		if !onGuarded(p, call, parents) {
			p.Reportf(call.Pos(), "variadic call %s materializes an argument slice %s (guard with the On() idiom or annotate)",
				exprString(call.Fun), where)
		}
		return // per-arg boxing inside the variadic slot folds into this report
	}
	for i, arg := range call.Args {
		if i >= sig.Params().Len() {
			break
		}
		pt := sig.Params().At(i).Type()
		if types.IsInterface(pt) && boxes(p, arg) {
			p.Reportf(arg.Pos(), "argument boxes %s into interface %s %s", exprString(arg), pt.String(), where)
		}
	}
}

// checkHotConversion flags conversions that copy or box.
func checkHotConversion(p *analysis.Pass, call *ast.CallExpr, to types.Type, where string) {
	if len(call.Args) != 1 {
		return
	}
	from := p.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	if types.IsInterface(to) {
		if boxes(p, call.Args[0]) {
			p.Reportf(call.Pos(), "conversion boxes %s into interface %s %s", exprString(call.Args[0]), to.String(), where)
		}
		return
	}
	if copiesOnConvert(from, to) || copiesOnConvert(to, from) {
		p.Reportf(call.Pos(), "conversion to %s copies its operand %s", to.String(), where)
	}
}

// copiesOnConvert reports string -> []byte / []rune shapes.
func copiesOnConvert(from, to types.Type) bool {
	fb, ok := from.Underlying().(*types.Basic)
	if !ok || fb.Info()&types.IsString == 0 {
		return false
	}
	ts, ok := to.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	eb, ok := ts.Elem().Underlying().(*types.Basic)
	return ok && (eb.Kind() == types.Byte || eb.Kind() == types.Rune || eb.Kind() == types.Uint8 || eb.Kind() == types.Int32)
}

// boxes reports whether passing e to an interface slot allocates: a
// concrete, non-nil, non-interface value does.
func boxes(p *analysis.Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.IsNil() {
		return false
	}
	if tv.Type == nil || types.IsInterface(tv.Type) {
		return false
	}
	return true
}

// selfAppend reports the `s = append(s, ...)` scratch idiom: the
// destination and the first argument render to the same expression.
func selfAppend(call *ast.CallExpr, parents map[ast.Node]ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	as, ok := parents[call].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for i, rhs := range as.Rhs {
		if rhs == ast.Expr(call) && i < len(as.Lhs) {
			return exprString(as.Lhs[i]) == exprString(call.Args[0])
		}
	}
	return false
}

// onGuarded reports whether the call sits under an `if x.On() { ... }`
// guard inside the same function — the documented tracer idiom: the
// variadic slice is only materialized when tracing is enabled, which
// never happens on a measured run.
func onGuarded(p *analysis.Pass, call *ast.CallExpr, parents map[ast.Node]ast.Node) bool {
	for n := ast.Node(call); n != nil; n = parents[n] {
		if ifs, ok := n.(*ast.IfStmt); ok && condCallsOn(ifs.Cond) {
			return true
		}
		switch n.(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}

func condCallsOn(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "On" {
				found = true
			}
		}
		return !found
	})
	return found
}
