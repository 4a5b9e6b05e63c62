package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"

	"rmscale/internal/lint"
	"rmscale/internal/lint/analysis"
	"rmscale/internal/lint/callgraph"
	"rmscale/internal/lint/linttest"
	"rmscale/internal/lint/load"
)

// TestNoWallClock checks detertaint's direct wall-clock findings, the
// chain of length zero.
func TestNoWallClock(t *testing.T) {
	linttest.Run(t, "testdata", lint.DeterTaint(), "nowallclock")
}

// TestNoGlobalRand checks detertaint's direct global- and ad-hoc-RNG
// findings.
func TestNoGlobalRand(t *testing.T) {
	linttest.Run(t, "testdata", lint.DeterTaint(), "noglobalrand")
}

func TestMapIterOrder(t *testing.T) {
	linttest.Run(t, "testdata", lint.MapIterOrder(), "mapiterorder")
}

func TestNoKernelGoroutines(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoKernelGoroutines(), "nokernelgoroutines")
}

// TestCoordDiscipline pins where concurrency may live: a simulation runs
// on one goroutine from the kernel up through the engine, and only the
// runner pool above it spreads runs across cores. The kernel and the
// engine therefore sit under nokernelgoroutines, and the pool does not.
func TestCoordDiscipline(t *testing.T) {
	kernel := map[string]bool{}
	for _, pkg := range lint.DefaultConfig.Kernel {
		kernel[pkg] = true
	}
	for _, pkg := range []string{"rmscale/internal/sim", "rmscale/internal/grid"} {
		if !kernel[pkg] {
			t.Errorf("%s is not held to nokernelgoroutines", pkg)
		}
	}
	if kernel["rmscale/internal/runner"] {
		t.Errorf("rmscale/internal/runner, the parallel runner pool, is held to nokernelgoroutines")
	}
}

// TestDeterTaint checks the wall-clock/global-RNG taint analyzer
// against a two-package fixture chain: the sources themselves and every
// call that reaches one.
func TestDeterTaint(t *testing.T) {
	linttest.Run(t, "testdata", lint.DeterTaint(), "detertaint/helper", "detertaint")
}

// TestHotAlloc checks the //lint:hotpath allocation-budget analyzer,
// including a hot callee in a separate unmarked package.
func TestHotAlloc(t *testing.T) {
	linttest.Run(t, "testdata", lint.HotAlloc(), "hotalloc/dep", "hotalloc")
}

// TestLockSafe checks the service locking-discipline analyzer.
func TestLockSafe(t *testing.T) {
	linttest.Run(t, "testdata", lint.LockSafe(), "locksafe")
}

// TestDeadCode checks the reachability analyzer on a fixture module:
// a root package, a main package and a library under internal/. Only
// the main is a root; the root package's exported API is not.
func TestDeadCode(t *testing.T) {
	linttest.Run(t, "testdata", lint.DeadCode(), "deadcode/internal/lib", "deadcode", "deadcode/cmd/tool")
}

// TestDeadCodeNeedsWholeModule pins deadcode's partial-load rule on
// the module itself. A load of ./... is the whole module, and deadcode
// reports linttest.Run there before directives apply, since only tests
// call it. A load of that one package lacks the module's roots, so
// deadcode reports nothing at all, linttest.Run included.
func TestDeadCodeNeedsWholeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module twice")
	}
	raw := func(pattern string) (whole bool, msgs []string) {
		t.Helper()
		fset := token.NewFileSet()
		pkgs, whole, err := load.Module(fset, "../..", pattern)
		if err != nil {
			t.Fatal(err)
		}
		cg := make([]*callgraph.Package, len(pkgs))
		for i, p := range pkgs {
			cg[i] = &callgraph.Package{Path: p.Path, Files: p.Files, Pkg: p.Pkg, Info: p.Info}
		}
		g := callgraph.Build(fset, cg)
		g.Partial = !whole
		a := lint.DeadCode()
		for _, p := range pkgs {
			pass := &analysis.Pass{Analyzer: a, Fset: fset, Files: p.Files, Pkg: p.Pkg, Info: p.Info, Shared: g}
			if err := a.Run(pass); err != nil {
				t.Fatal(err)
			}
			for _, d := range pass.Diagnostics() {
				msgs = append(msgs, d.Message)
			}
		}
		return whole, msgs
	}
	const harness = "linttest.Run is unreachable"
	whole, msgs := raw("./...")
	if !whole {
		t.Fatal("a load of ./... does not count as the whole module")
	}
	if !slices.ContainsFunc(msgs, func(m string) bool { return strings.HasPrefix(m, harness) }) {
		t.Fatalf("the whole load does not report %q: %q", harness, msgs)
	}
	whole, msgs = raw("./internal/lint/linttest")
	if whole {
		t.Fatal("a load of one package counts as the whole module")
	}
	if len(msgs) != 0 {
		t.Fatalf("a partial load reported %q", msgs)
	}
}

// TestMalformedDirectives checks that broken //lint: markers are
// themselves reported: an unexplained or mistargeted exception must
// not silently suppress anything.
func TestMalformedDirectives(t *testing.T) {
	const src = `package p

func f() {
	//lint:allow detertaint
	_ = 1
	//lint:allow bogusanalyzer because reasons
	_ = 2
	//lint:frobnicate whatever
	_ = 3
}

//lint:hotpath
func g() {}

//lint:coordinator
func h() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	known := lint.KnownAnalyzers()
	out := lint.ApplyDirectives(fset, []*ast.File{f}, known, nil)
	if len(out) != 5 {
		t.Fatalf("got %d directive diagnostics, want 5: %+v", len(out), out)
	}
	for _, want := range []string{
		"needs a reason", "unknown analyzer bogusanalyzer",
		"unknown //lint: directive frobnicate", "directive for hotpath needs a reason",
		"unknown //lint: directive coordinator",
	} {
		found := false
		for _, d := range out {
			if d.Analyzer == "lintdirective" && strings.Contains(d.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no lintdirective diagnostic mentions %q in %+v", want, out)
		}
	}
}

// TestSuppressionCoversBothAnchors checks that a loop-level
// //lint:orderindependent directive silences diagnostics reported
// inside the loop body (via the suppression anchor), which is how the
// production annotations in grid/estimator.go and runner/report.go
// work.
func TestSuppressionAnchor(t *testing.T) {
	fset := token.NewFileSet()
	const src = `package p

func f(m map[string]int, out func(string)) {
	//lint:orderindependent the sink deduplicates
	for k := range m {
		out(k)
	}
}
`
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	known := lint.KnownAnalyzers()
	// A diagnostic inside the loop body (line 6), anchored on the loop
	// header (line 5), must be suppressed by the directive on line 4.
	bodyPos := posOnLine(fset, f, 6)
	loopPos := posOnLine(fset, f, 5)
	d := analysis.Diagnostic{Pos: bodyPos, SuppressPos: loopPos, Message: "calls out", Analyzer: "mapiterorder"}
	if out := lint.ApplyDirectives(fset, []*ast.File{f}, known, []analysis.Diagnostic{d}); len(out) != 0 {
		t.Fatalf("anchored diagnostic not suppressed: %+v", out)
	}
	// Without the anchor the body diagnostic survives.
	d.SuppressPos = token.NoPos
	if out := lint.ApplyDirectives(fset, []*ast.File{f}, known, []analysis.Diagnostic{d}); len(out) != 1 {
		t.Fatalf("unanchored diagnostic unexpectedly suppressed")
	}
}

// TestSuppressionStatementSpan pins the multi-line statement rule
// directly: a directive anchored on a wrapped statement's first line
// covers the statement's later lines, but a directive above a go/defer
// statement does not blanket the closure body it launches.
func TestSuppressionStatementSpan(t *testing.T) {
	fset := token.NewFileSet()
	const src = `package p

func f(g func(int, int) int, ch chan int) {
	//lint:allow detertaint spans the wrapped call
	_ = g(
		1,
		2,
	)
	//lint:allow nokernelgoroutines the launch itself is sanctioned
	go func() {
		ch <- 1
	}()
}
`
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	known := lint.KnownAnalyzers()

	// A diagnostic on the wrapped call's third line (7) is covered by
	// the directive anchored on the statement's first line (5).
	span := analysis.Diagnostic{Pos: posOnLine(fset, f, 7), Message: "wall clock", Analyzer: "detertaint"}
	if out := lint.ApplyDirectives(fset, []*ast.File{f}, known, []analysis.Diagnostic{span}); len(out) != 0 {
		t.Fatalf("multi-line statement span not covered: %+v", out)
	}
	// The go statement's directive covers its own line (10) but must
	// not extend over the closure body (line 11).
	launch := analysis.Diagnostic{Pos: posOnLine(fset, f, 10), Message: "goroutine", Analyzer: "nokernelgoroutines"}
	inner := analysis.Diagnostic{Pos: posOnLine(fset, f, 11), Message: "channel send", Analyzer: "nokernelgoroutines"}
	out := lint.ApplyDirectives(fset, []*ast.File{f}, known, []analysis.Diagnostic{launch, inner})
	if len(out) != 1 || fset.Position(out[0].Pos).Line != 11 {
		t.Fatalf("go-statement directive must suppress the launch only, got: %+v", out)
	}
}

// posOnLine returns some token position on the given line.
func posOnLine(fset *token.FileSet, f *ast.File, line int) token.Pos {
	var found token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found != token.NoPos {
			return false
		}
		if fset.Position(n.Pos()).Line == line {
			found = n.Pos()
			return false
		}
		return true
	})
	return found
}
