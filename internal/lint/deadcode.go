package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"rmscale/internal/lint/analysis"
	"rmscale/internal/lint/callgraph"
)

// DeadCode reports every function or method in the load that no
// production root reaches, so code that only its own tests call is
// found mechanically instead of by hand. As with the Go team's
// deadcode tool, a program is rooted at its mains, not at its exported
// API: the binaries and examples are the library's executable
// contract. The roots are:
//
//   - main and init of every main package in the load, and every init;
//   - every function referenced in a package-level var initializer;
//   - every method whose name and signature match a method of an
//     interface a standard-library package in the load declares
//     (String, Error, ServeHTTP, Read, Import, ...), because the
//     standard library calls those through interfaces the module
//     never sees dispatched.
//
// Reachability follows every function a reached body references, not
// only the calls the graph resolves: the graph records calls through
// function values with no callee, so a method value or a function
// passed as a callback is live once the body that names it is. A
// reference to an interface method, called or taken as a value, keeps
// every module method of that name and signature, a superset of the
// graph's CHA targets. Generic callees map to their declarations
// through Origin.
//
// A load of part of the module lacks its roots, so the analyzer stays
// silent on a graph lint.Run marks Partial.
// Functions only test files reach carry //lint:allow deadcode with the
// reason they stay.
func DeadCode() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "deadcode",
		Doc:  "report functions that no production root reaches",
	}
	a.Run = func(p *analysis.Pass) error {
		g, ok := p.Shared.(*callgraph.Graph)
		if !ok || g == nil || g.Partial {
			return nil
		}
		live := liveOf(g)
		for _, n := range g.Nodes() {
			if n.Pkg.Pkg != p.Pkg || live[n] {
				continue
			}
			p.Reportf(n.Decl.Pos(), "%s is unreachable from every production root", callgraph.FuncLabel(n.Fn))
		}
		return nil
	}
	return a
}

// liveOf computes (once per graph, memoized) the set of nodes some
// production root reaches.
func liveOf(g *callgraph.Graph) map[*callgraph.Node]bool {
	if live, ok := g.Memo["deadcode"].(map[*callgraph.Node]bool); ok {
		return live
	}
	live := map[*callgraph.Node]bool{}
	g.Memo["deadcode"] = live
	var work []*callgraph.Node
	mark := func(fn *types.Func) {
		if n := g.Node(fn.Origin()); n != nil && !live[n] {
			live[n] = true
			work = append(work, n)
		}
	}
	r := &rootFinder{g: g, mark: mark}
	r.mainsAndVars()
	r.stdInterfaces()
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		r.references(n.Pkg.Info, n.Decl.Body)
	}
	return live
}

// rootFinder marks the production roots of one graph.
type rootFinder struct {
	g    *callgraph.Graph
	mark func(*types.Func)
}

// mainsAndVars marks main and init functions and every function a
// package-level var initializer references.
func (r *rootFinder) mainsAndVars() {
	for _, p := range r.g.Packages() {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Pkg.Name() == "main") {
						if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok {
							r.mark(fn)
						}
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						r.references(p.Info, d)
					}
				}
			}
		}
	}
}

// references marks every function referenced under node, and for a
// reference to an interface method every module method with the same
// name and signature.
func (r *rootFinder) references(info *types.Info, node ast.Node) {
	ast.Inspect(node, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			r.methodsMatching(fn.Id(), sig)
			return true
		}
		r.mark(fn)
		return true
	})
}

// methodsMatching marks every module method with the given identity
// and a signature identical to sig, receivers aside.
func (r *rootFinder) methodsMatching(id string, sig *types.Signature) {
	for _, n := range r.g.Nodes() {
		msig := n.Fn.Type().(*types.Signature)
		if msig.Recv() != nil && n.Fn.Id() == id && sameSignature(msig, sig) {
			r.mark(n.Fn)
		}
	}
}

func sameSignature(a, b *types.Signature) bool {
	return a.Variadic() == b.Variadic() &&
		types.Identical(a.Params(), b.Params()) &&
		types.Identical(a.Results(), b.Results())
}

// stdInterfaces marks every module method whose name and signature
// match an exported method of an interface declared at package level
// in a standard-library package the load imports, or of error.
func (r *rootFinder) stdInterfaces() {
	module := map[*types.Package]bool{}
	for _, p := range r.g.Packages() {
		module[p.Pkg] = true
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !module[p] {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range r.g.Packages() {
		visit(p.Pkg)
	}
	byName := map[string][]*types.Signature{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if m := it.Method(i); m.Exported() {
				byName[m.Name()] = append(byName[m.Name()], m.Type().(*types.Signature))
			}
		}
	}
	for _, n := range r.g.Nodes() {
		sig := n.Fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		for _, isig := range byName[n.Fn.Name()] {
			if sameSignature(sig, isig) {
				r.mark(n.Fn)
				break
			}
		}
	}
}
