package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"rmscale/internal/lint/analysis"
	"rmscale/internal/lint/callgraph"
)

// wallClockNames are the package time identifiers that read the real
// clock or arm real timers. Types, constants and pure-arithmetic
// helpers (Duration, Unix, Date construction from literals) are fine;
// anything that observes "now" or schedules against it is not.
var wallClockNames = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// randConstructors are the math/rand and math/rand/v2 identifiers
// that build a new generator rather than touching the shared global
// one. They are still flagged — every RNG in sim-visible code must
// descend from a sim.Source named stream — but with a message that
// points at the sanctioned construction site, which carries a
// //lint:allow annotation.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// DeterTaint owns the determinism invariant of simulation-visible
// packages: virtual time comes from the kernel (sim.Kernel.Now), never
// from package time, and every random draw comes from a sim.Source
// named stream, never from the process-global math/rand state or an
// ad-hoc generator. Otherwise identical seeds stop producing identical
// runs.
//
// It reports two kinds of finding. A source referenced in the package
// itself is the chain of length zero: the selector is matched, not the
// call, so f := time.Now is caught too, while naming the math/rand
// types stays allowed. A longer chain runs through the call graph: a
// function is tainted when it calls a source, or (transitively) any
// tainted module function, and every call from a simulation-visible
// package into a tainted function is reported with the witness chain
// down to the source — which catches a helper package outside the
// SimVisible list that reads time.Now and hands the result back across
// the boundary.
//
// Suppression works at both ends of a chain:
//
//   - at the source: a //lint:allow detertaint on the line of the
//     time/rand reference silences it and cuts the taint for every
//     caller;
//   - at the entry point: a //lint:allow detertaint on the reported
//     call site in the simulation-visible package.
//
// Soundness limits (documented in DESIGN.md): calls through function
// values are not followed, standard-library bodies are opaque, and
// interface dispatch covers only implementations the module declares.
func DeterTaint() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "detertaint",
		Doc:  "forbid wall-clock reads and global or ad-hoc RNGs in sim-visible packages, directly or through any chain of module calls",
	}
	a.Run = func(p *analysis.Pass) error {
		reportSources(p)
		g := passGraph(p)
		t := taintOf(g)
		for _, n := range g.Nodes() {
			if n.Pkg.Pkg != p.Pkg {
				continue
			}
			for _, call := range n.Calls {
				for _, target := range call.Targets {
					w, ok := t.tainted[target]
					if !ok {
						continue
					}
					p.Reportf(call.Pos,
						"call into %s reaches %s (%s); sim-visible code must not depend on wall-clock or global-RNG state, even transitively — cut the chain at the source or annotate this entry point",
						callgraph.FuncLabel(target.Fn), w.source(t), w.chain(t, target))
					break // one report per call site
				}
			}
		}
		return nil
	}
	return a
}

// reportSources reports every wall-clock or math/rand reference in the
// package's own files.
func reportSources(p *analysis.Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, ok := p.SelectorOf(sel)
			if !ok {
				return true
			}
			switch path {
			case "time":
				if wallClockNames[name] {
					p.Reportf(sel.Pos(),
						"time.%s reads the wall clock; sim-visible code must take virtual time from the simulation kernel", name)
				}
			case "math/rand", "math/rand/v2":
				// Referring to the types (rand.Rand, rand.Source) is
				// fine: the stream wrappers store them.
				if _, isType := p.Info.Uses[sel.Sel].(*types.TypeName); isType {
					return true
				}
				if randConstructors[name] {
					p.Reportf(sel.Pos(),
						"rand.%s builds an RNG outside the named-stream factory; draw from sim.RNG streams (or annotate the factory with //lint:allow detertaint <why>)", name)
				} else {
					p.Reportf(sel.Pos(),
						"rand.%s uses the process-global RNG; sim-visible code must draw from sim.RNG named streams", name)
				}
			}
			return true
		})
	}
}

// taintWitness records how a node became tainted: via is the next hop
// toward the source (nil when the node calls the source directly).
type taintWitness struct {
	src string
	via *callgraph.Node
}

func (w *taintWitness) source(t *taintState) string {
	for w.via != nil {
		w = t.tainted[w.via]
	}
	return w.src
}

// chain renders "helper.Stamp -> helper.now -> time.Now" starting at
// the tainted node the entry point called.
func (w *taintWitness) chain(t *taintState, start *callgraph.Node) string {
	parts := []string{callgraph.FuncLabel(start.Fn)}
	for w.via != nil {
		parts = append(parts, callgraph.FuncLabel(w.via.Fn))
		w = t.tainted[w.via]
	}
	parts = append(parts, w.src)
	return strings.Join(parts, " -> ")
}

type taintState struct {
	tainted map[*callgraph.Node]*taintWitness
}

// taintOf computes (once per graph, memoized) the set of module
// functions from which a determinism-breaking source is reachable.
func taintOf(g *callgraph.Graph) *taintState {
	if t, ok := g.Memo["detertaint"].(*taintState); ok {
		return t
	}
	t := &taintState{tainted: map[*callgraph.Node]*taintWitness{}}
	g.Memo["detertaint"] = t

	// Source-side suppression: an annotated time/rand call line cuts
	// the taint before it enters the graph. Directives are parsed per
	// package through the same machinery ApplyDirectives uses, so the
	// multiline-span and standalone/trailing rules match exactly.
	known := map[string]bool{"detertaint": true}
	sup := suppressions{}
	seen := map[*callgraph.Package]bool{}
	for _, n := range g.Nodes() {
		if seen[n.Pkg] {
			continue
		}
		seen[n.Pkg] = true
		s, _ := parseDirectives(g.Fset(), n.Pkg.Files, known)
		for k, v := range s {
			sup[k] = v
		}
	}
	cut := func(pos token.Pos) bool {
		return sup.suppressed(g.Fset(), analysis.Diagnostic{Pos: pos, Analyzer: "detertaint"})
	}

	// Seed: nodes that call a source directly on an unsuppressed line.
	for _, n := range g.Nodes() {
		for _, call := range n.Calls {
			src, ok := taintSource(call.Callee)
			if !ok || cut(call.Pos) {
				continue
			}
			if _, done := t.tainted[n]; !done {
				t.tainted[n] = &taintWitness{src: src}
			}
		}
	}

	// Propagate along reverse call edges to a fixpoint. The witness is
	// set exactly once per node, so chains are acyclic by construction.
	callers := map[*callgraph.Node][]*callgraph.Node{}
	for _, n := range g.Nodes() {
		for _, call := range n.Calls {
			for _, target := range call.Targets {
				callers[target] = append(callers[target], n)
			}
		}
	}
	work := make([]*callgraph.Node, 0, len(t.tainted))
	for _, n := range g.Nodes() {
		if _, ok := t.tainted[n]; ok {
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[n] {
			if _, done := t.tainted[caller]; done {
				continue
			}
			t.tainted[caller] = &taintWitness{src: t.tainted[n].src, via: n}
			work = append(work, caller)
		}
	}
	return t
}

// taintSource classifies a callee as a determinism-breaking source:
// the wall-clock reads in wallClockNames, or any package-level
// math/rand function (global draws and ad-hoc constructors alike —
// methods on an already-constructed *rand.Rand are named-stream draws
// and stay clean).
func taintSource(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockNames[fn.Name()] {
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		return "rand." + fn.Name(), true
	}
	return "", false
}
