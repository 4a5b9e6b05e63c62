// Package lint is rmslint: a suite of analyzers that mechanically
// enforce the determinism and model-coverage invariants the
// reproduction's byte-identical results depend on. The isoefficiency
// numbers and the fault goldens are only meaningful because no
// wall-clock reads, global RNG draws, map-iteration order or stray
// goroutines can leak into the event-level grid model; before this
// package those invariants lived in comments and were caught — after
// the fact — by golden files. Now they fail the build.
//
// The suite has two tiers. Three analyzers are call-site local
// (mapiterorder, nokernelgoroutines, rmsexhaustive): cheap, precise,
// package-scoped. Four are interprocedural (detertaint, hotalloc,
// locksafe, deadcode): they run over a module-wide call graph
// (internal/lint/callgraph) the driver builds once per run and shares
// across every (analyzer, package) pass. detertaint owns the whole
// determinism invariant: it reports a wall-clock or global-RNG source
// referenced directly in a simulation-visible package as well as one
// reached through any chain of calls. deadcode reports the functions
// under internal/ that no production root reaches, on a load of the
// whole module only.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"

	"rmscale/internal/lint/analysis"
	"rmscale/internal/lint/callgraph"
	"rmscale/internal/lint/load"
)

// Suite returns the seven analyzers in their fixed reporting order:
// the local fast passes first, then the call-graph tier.
func Suite(cfg Config) []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapIterOrder(),
		NoKernelGoroutines(),
		RMSExhaustive(EnumSpec{
			PkgPath:   cfg.EnumPkg,
			TypeName:  cfg.EnumType,
			Constants: cfg.EnumConstants,
		}),
		DeterTaint(),
		HotAlloc(),
		LockSafe(),
		DeadCode(),
	}
}

// packagesFor returns the config entry list governing one analyzer.
func (cfg Config) packagesFor(name string) []string {
	switch name {
	case "mapiterorder":
		return cfg.MapOrder
	case "nokernelgoroutines":
		return cfg.Kernel
	case "rmsexhaustive":
		return cfg.Exhaustive
	case "detertaint":
		// The taint analyzer reports sources and entry points in
		// simulation-visible packages; the chains it follows may pass
		// through any package.
		return cfg.SimVisible
	case "hotalloc":
		return cfg.HotAlloc
	case "locksafe":
		return cfg.LockSafe
	case "deadcode":
		// The analyzer itself keeps to functions under internal/.
		return []string{"..."}
	default:
		panic("lint: unknown analyzer " + name)
	}
}

// KnownAnalyzers is the set of names //lint: directives may target.
func KnownAnalyzers(cfg Config) map[string]bool {
	known := map[string]bool{}
	for _, a := range Suite(cfg) {
		known[a.Name] = true
	}
	return known
}

// Finding is one diagnostic with its positions resolved — the
// machine-readable shape behind both the vet-format text output and
// cmd/rmslint's -json report.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`

	// AnchorFile/AnchorLine locate the suppression anchor when it
	// differs from the diagnostic position (the loop header, the Lock
	// statement, the method declaration).
	AnchorFile string `json:"anchor_file,omitempty"`
	AnchorLine int    `json:"anchor_line,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Run loads the packages matched by patterns in the module rooted at
// dir, builds the shared call graph once, applies the suite per the
// config, and returns the surviving findings in report order.
func Run(dir string, patterns []string, cfg Config) ([]Finding, error) {
	fset := token.NewFileSet()
	pkgs, whole, err := load.Module(fset, dir, patterns...)
	if err != nil {
		return nil, err
	}
	cgPkgs := make([]*callgraph.Package, len(pkgs))
	for i, p := range pkgs {
		cgPkgs[i] = &callgraph.Package{Path: p.Path, Files: p.Files, Pkg: p.Pkg, Info: p.Info}
	}
	graph := callgraph.Build(fset, cgPkgs)
	graph.Partial = !whole

	suite := Suite(cfg)
	known := KnownAnalyzers(cfg)
	var out []Finding
	for _, pkg := range pkgs {
		var diags []analysis.Diagnostic
		for _, a := range suite {
			if !appliesTo(cfg.packagesFor(a.Name), pkg.Path) {
				continue
			}
			pass := &analysis.Pass{Analyzer: a, Fset: fset, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info, Shared: graph}
			if err := a.Run(pass); err != nil {
				return out, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			diags = append(diags, pass.Diagnostics()...)
		}
		// ApplyDirectives also surfaces malformed //lint: markers, so it
		// runs even when the analyzers found nothing.
		for _, d := range ApplyDirectives(fset, pkg.Files, known, diags) {
			out = append(out, findingOf(fset, d))
		}
	}
	return out, nil
}

func findingOf(fset *token.FileSet, d analysis.Diagnostic) Finding {
	p := fset.Position(d.Pos)
	f := Finding{File: p.Filename, Line: p.Line, Col: p.Column, Analyzer: d.Analyzer, Message: d.Message}
	if d.SuppressPos != token.NoPos {
		a := fset.Position(d.SuppressPos)
		if a.Filename != p.Filename || a.Line != p.Line {
			f.AnchorFile, f.AnchorLine = a.Filename, a.Line
		}
	}
	return f
}

// ApplyDirectives filters diagnostics through the files' //lint:
// markers and appends diagnostics for malformed markers. Shared by
// the CLI driver and the analysistest harness so fixtures exercise
// the same suppression path production uses.
func ApplyDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool, diags []analysis.Diagnostic) []analysis.Diagnostic {
	sup, bad := parseDirectives(fset, files, known)
	kept := make([]analysis.Diagnostic, 0, len(diags)+len(bad))
	for _, d := range diags {
		if !sup.suppressed(fset, d) {
			kept = append(kept, d)
		}
	}
	return append(kept, bad...)
}

// passGraph returns the run-wide call graph the driver cached on the
// pass, building a single-package graph as a fallback for callers
// that drive an analyzer directly.
func passGraph(p *analysis.Pass) *callgraph.Graph {
	if g, ok := p.Shared.(*callgraph.Graph); ok && g != nil {
		return g
	}
	g := callgraph.Build(p.Fset, []*callgraph.Package{{Path: p.Pkg.Path(), Files: p.Files, Pkg: p.Pkg, Info: p.Info}})
	g.Partial = true
	return g
}
