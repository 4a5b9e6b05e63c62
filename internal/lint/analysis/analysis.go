// Package analysis is a deliberately small, dependency-free stand-in
// for golang.org/x/tools/go/analysis: enough surface for rmslint's
// analyzers to be written in the upstream style (an Analyzer value
// whose Run inspects a typed Pass and reports Diagnostics) without
// pulling x/tools into the module. If the module ever vendors
// x/tools, the analyzers port mechanically: the field names and the
// Pass shape match the upstream API on purpose.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker. Name doubles as the
// identifier used by //lint:allow directives and by the package
// allow/deny configuration.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass is one (analyzer, package) unit of work. All fields are
// read-only for the analyzer; diagnostics flow out through Report.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Shared carries run-wide state the driver computed once for the
	// whole module — rmslint stores the call graph here so the
	// interprocedural analyzers share one resolution pass instead of
	// rebuilding it per (analyzer, package). Mirrors the role of
	// upstream's ResultOf, collapsed to a single slot.
	Shared any

	diags []Diagnostic
}

// Diagnostic is one reported violation. SuppressPos, when set, is the
// position a //lint: directive must cover to silence the diagnostic —
// analyzers that report inside a construct (a loop body) anchor
// suppression on the construct itself, so one annotated loop header
// covers its body.
type Diagnostic struct {
	Pos         token.Pos
	SuppressPos token.Pos
	Message     string
	Analyzer    string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ReportfAnchored records a diagnostic at pos whose suppression
// directive may sit at anchor instead (e.g. on the loop header the
// violation lives inside).
func (p *Pass) ReportfAnchored(anchor, pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:         pos,
		SuppressPos: anchor,
		Message:     fmt.Sprintf(format, args...),
		Analyzer:    p.Analyzer.Name,
	})
}

// TypeOf returns the type of e, or nil when the checker could not
// resolve it.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// PkgNameOf resolves an identifier to the imported package it names,
// or nil when the identifier is not a package qualifier.
func (p *Pass) PkgNameOf(id *ast.Ident) *types.PkgName {
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}

// SelectorOf decomposes e into (package path, selected name) when e is
// a selector on an imported package qualifier, e.g. time.Now ->
// ("time", "Now"). The bool reports whether e had that shape.
func (p *Pass) SelectorOf(e ast.Expr) (path, name string, ok bool) {
	sel, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn := p.PkgNameOf(id)
	if pn == nil {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// Diagnostics returns the diagnostics the pass collected, in source
// order.
func (p *Pass) Diagnostics() []Diagnostic {
	out := append([]Diagnostic(nil), p.diags...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}
