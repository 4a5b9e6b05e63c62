// Package callgraph builds a static call graph over the module's
// type-checked packages, shared by rmslint's interprocedural
// analyzers (detertaint, hotalloc, locksafe). The graph is built once
// per lint run from the packages the loader already type-checked —
// no second parse, no second type check — and cached on the pass, so
// adding an analyzer costs one traversal, not one reload.
//
// Resolution is CHA-style (class-hierarchy analysis):
//
//   - direct calls (pkg.F, method calls on a concrete receiver) get
//     exactly one target when the body lives in the module, a generic
//     callee's declaration for a call of an instantiation;
//   - interface method calls expand to every module-declared concrete
//     type whose method set satisfies the interface — sound over the
//     module's own types, deliberately blind to implementations the
//     module never compiles;
//   - calls through function values (fields, parameters, locals) are
//     recorded with no callee: the dynamic edge is a documented
//     soundness limit, backstopped at runtime by the allocation tests
//     and the determinism goldens.
//
// Function literals are attributed to the enclosing declaration: a
// closure's calls are the closure creator's calls, which matches how
// both taint (the closure observes the source) and hot-path cost (the
// closure runs when its creator's path runs) propagate in practice.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Package is the per-package view the builder consumes: the same
// fields internal/lint/load produces, duplicated here so the graph
// does not depend on the loader.
type Package struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Node is one function or method declared in the module, with every
// call site in its body (function literals included).
type Node struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	File  *ast.File
	Pkg   *Package
	Calls []Call
}

// Call is one call site. Callee is the statically resolved callee
// object — possibly a standard-library function with no module body —
// and nil for calls through function values. Targets are the module
// bodies the call can reach: one for a direct call, the CHA expansion
// for an interface method call, none when the callee lives outside
// the module.
type Call struct {
	Pos       token.Pos
	Callee    *types.Func
	Targets   []*Node
	Interface bool // resolved by method-set expansion, not statically
	InLit     bool // sits inside a func literal of the node
}

// Graph is the module call graph plus scratch space for analyzer
// summaries derived from it.
type Graph struct {
	fset  *token.FileSet
	pkgs  []*Package
	nodes map[*types.Func]*Node
	order []*Node

	concrete []types.Type // named non-interface types, for CHA
	chaCache map[string][]*Node

	// Memo holds per-graph summaries analyzers derive once and reuse
	// across per-package passes (taint sets, hot sets, blocking
	// summaries), keyed by analyzer name.
	Memo map[string]any

	// Partial marks a graph over only part of the module, which lacks
	// callers outside it; deadcode reports nothing on such a graph.
	Partial bool
}

// Build constructs the graph over pkgs. Deterministic: nodes are in
// declaration order, CHA targets in package-then-name order.
func Build(fset *token.FileSet, pkgs []*Package) *Graph {
	g := &Graph{
		fset:     fset,
		pkgs:     pkgs,
		nodes:    map[*types.Func]*Node{},
		chaCache: map[string][]*Node{},
		Memo:     map[string]any{},
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Fn: fn, Decl: fd, File: f, Pkg: p}
				g.nodes[fn] = n
				g.order = append(g.order, n)
			}
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			g.concrete = append(g.concrete, named)
		}
	}
	for _, n := range g.order {
		g.resolveCalls(n)
	}
	return g
}

// Fset returns the file set the graph's positions resolve against.
func (g *Graph) Fset() *token.FileSet { return g.fset }

// Packages returns the packages the graph was built over.
func (g *Graph) Packages() []*Package { return g.pkgs }

// Node returns the graph node for fn, or nil when fn has no module
// body (standard library, interface method, external).
func (g *Graph) Node(fn *types.Func) *Node { return g.nodes[fn] }

// Nodes returns every module function in declaration order.
func (g *Graph) Nodes() []*Node { return g.order }

// resolveCalls walks n's body recording one Call per call expression,
// tracking func-literal depth so closures are attributed to n.
func (g *Graph) resolveCalls(n *Node) {
	info := n.Pkg.Info
	depth := 0
	var stack []ast.Node
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if nd == nil {
			if _, ok := stack[len(stack)-1].(*ast.FuncLit); ok {
				depth--
			}
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, nd)
		if _, ok := nd.(*ast.FuncLit); ok {
			depth++
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		if c := g.resolveCall(info, call); c != nil {
			c.InLit = depth > 0
			n.Calls = append(n.Calls, *c)
		}
		return true
	})
}

// resolveCall classifies one call expression. A nil result means the
// expression contributes no edge (builtins, immediately invoked
// literals whose body is walked in place).
func (g *Graph) resolveCall(info *types.Info, call *ast.CallExpr) *Call {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return g.concreteCall(call, obj)
		case *types.Builtin, *types.TypeName:
			return nil
		}
		return &Call{Pos: call.Pos()} // function value
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return &Call{Pos: call.Pos()} // func-typed field
			}
			if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
				recv := sel.Recv()
				if types.IsInterface(recv) {
					iface, _ := recv.Underlying().(*types.Interface)
					return &Call{Pos: call.Pos(), Callee: m, Interface: true, Targets: g.cha(recv, iface, m)}
				}
				return g.concreteCall(call, m)
			}
			return &Call{Pos: call.Pos()}
		}
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return g.concreteCall(call, obj) // qualified pkg.F
		}
		return &Call{Pos: call.Pos()}
	case *ast.FuncLit:
		return nil // immediately invoked; body walked in place
	}
	return &Call{Pos: call.Pos()}
}

// concreteCall resolves a static call. A method of an instantiated
// generic type (Box[int].Get) is its own object, while the node map is
// keyed by the declaration, so the callee maps back through Origin.
func (g *Graph) concreteCall(call *ast.CallExpr, fn *types.Func) *Call {
	c := &Call{Pos: call.Pos(), Callee: fn}
	if n := g.nodes[fn.Origin()]; n != nil {
		c.Targets = []*Node{n}
	}
	return c
}

// cha expands an interface method call to the module's concrete types
// implementing the interface, memoized per (interface, method).
func (g *Graph) cha(recv types.Type, iface *types.Interface, m *types.Func) []*Node {
	if iface == nil || iface.NumMethods() == 0 {
		return nil // interface{} dispatch resolves to nothing statically
	}
	key := types.TypeString(recv, nil) + "\x00" + m.Id()
	if ts, ok := g.chaCache[key]; ok {
		return ts
	}
	var out []*Node
	for _, t := range g.concrete {
		pt := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(pt, iface) {
			continue
		}
		ms := types.NewMethodSet(pt)
		for i := 0; i < ms.Len(); i++ {
			f, ok := ms.At(i).Obj().(*types.Func)
			if !ok || f.Id() != m.Id() {
				continue
			}
			if n := g.nodes[f]; n != nil {
				out = append(out, n)
			}
		}
	}
	g.chaCache[key] = out
	return out
}

// FuncLabel renders fn for diagnostics: "sim.Kernel.Schedule",
// "time.Now", "service.Daemon.Submit".
func FuncLabel(fn *types.Func) string {
	if fn == nil {
		return "func value"
	}
	prefix := ""
	if fn.Pkg() != nil {
		prefix = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			return prefix + named.Obj().Name() + "." + fn.Name()
		}
	}
	return prefix + fn.Name()
}
