// Package linttest is an analysistest-style harness for rmslint's
// analyzers: it loads fixture packages from a testdata/src tree,
// type-checks them against the real standard library, runs one
// analyzer through the same directive-suppression path production
// uses, and compares the diagnostics against `// want "regex"`
// comments in the fixtures.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rmscale/internal/lint"
	"rmscale/internal/lint/analysis"
	"rmscale/internal/lint/callgraph"
	"rmscale/internal/lint/load"
)

// expectation is one `// want` clause: a line that must produce a
// diagnostic matching each regexp.
type expectation struct {
	file     string
	line     int
	patterns []*regexp.Regexp
	matched  []bool
}

// Run loads the named fixture packages (directories under
// testdata/src, loaded in order so later fixtures can import earlier
// ones by their directory path) and checks a's diagnostics against
// the fixtures' // want comments. Fixtures with intentional
// violations live under testdata so the module build never sees them.
//
//lint:allow deadcode test support: the analyzer tests drive every fixture through this harness
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()

	// Pass 1: collect each fixture's files and external imports.
	fixturePaths := map[string]bool{}
	for _, p := range pkgs {
		fixturePaths[p] = true
	}
	files := map[string][]string{}
	externals := map[string]bool{}
	for _, p := range pkgs {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(p))
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("fixture %s: no Go files in %s (%v)", p, dir, err)
		}
		sort.Strings(names)
		files[p] = names
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("fixture %s: %v", p, err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !fixturePaths[path] {
					externals[path] = true
				}
			}
		}
	}

	// Load the real standard-library dependencies, then type-check the
	// fixtures on top of them.
	var extList []string
	for p := range externals {
		extList = append(extList, p)
	}
	sort.Strings(extList)
	typed, err := load.Deps(fset, ".", extList...)
	if err != nil {
		t.Fatalf("loading fixture dependencies: %v", err)
	}

	// Type-check every fixture first, then build the shared call graph
	// over all of them — the same priming the production driver does —
	// so interprocedural analyzers see cross-package fixture chains.
	var checked []*load.Package
	for _, p := range pkgs {
		pkg, err := load.Check(fset, p, files[p], typed)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", p, err)
		}
		typed[p] = pkg.Pkg
		checked = append(checked, pkg)
	}
	cgPkgs := make([]*callgraph.Package, len(checked))
	for i, pkg := range checked {
		cgPkgs[i] = &callgraph.Package{Path: pkg.Path, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info}
	}
	graph := callgraph.Build(fset, cgPkgs)

	known := map[string]bool{a.Name: true}
	var diags []analysis.Diagnostic
	var expects []*expectation
	for _, pkg := range checked {
		pass := &analysis.Pass{Analyzer: a, Fset: fset, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info, Shared: graph}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on fixture %s: %v", a.Name, pkg.Path, err)
		}
		diags = append(diags, lint.ApplyDirectives(fset, pkg.Files, known, pass.Diagnostics())...)
		for _, f := range pkg.Files {
			exp, err := wantComments(fset, f)
			if err != nil {
				t.Fatal(err)
			}
			expects = append(expects, exp...)
		}
	}

	// Match diagnostics against expectations.
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !consume(expects, pos.Filename, pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic %s:%d: %s (%s)", pos.Filename, pos.Line, d.Message, d.Analyzer)
		}
	}
	for _, e := range expects {
		for i, ok := range e.matched {
			if !ok {
				t.Errorf("%s:%d: no diagnostic matched %q", e.file, e.line, e.patterns[i])
			}
		}
	}
}

// consume marks the first unmatched expectation pattern on the
// diagnostic's line that matches its message.
//
//lint:allow deadcode test support: called by the fixture harness Run
func consume(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if e.file != file || e.line != line {
			continue
		}
		for i, re := range e.patterns {
			if !e.matched[i] && re.MatchString(msg) {
				e.matched[i] = true
				return true
			}
		}
	}
	return false
}

// wantComments extracts `// want "re" ["re" ...]` clauses from a
// file's comments. The clause expects one matching diagnostic per
// quoted regexp on the comment's own line.
//
//lint:allow deadcode test support: called by the fixture harness Run
func wantComments(fset *token.FileSet, f *ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "// want ")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			e := &expectation{file: pos.Filename, line: pos.Line}
			rest := strings.TrimSpace(text)
			for rest != "" {
				if rest[0] != '"' {
					return nil, fmt.Errorf("%s:%d: malformed want clause near %q", e.file, e.line, rest)
				}
				lit, err := nextStringLit(rest)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", e.file, e.line, err)
				}
				pat, err := strconv.Unquote(lit)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", e.file, e.line, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", e.file, e.line, err)
				}
				e.patterns = append(e.patterns, re)
				rest = strings.TrimSpace(rest[len(lit):])
			}
			if len(e.patterns) == 0 {
				return nil, fmt.Errorf("%s:%d: want clause with no patterns", e.file, e.line)
			}
			e.matched = make([]bool, len(e.patterns))
			out = append(out, e)
		}
	}
	return out, nil
}

// nextStringLit returns the leading double-quoted Go string literal
// of s, including its quotes.
//
//lint:allow deadcode test support: called by the fixture harness Run
func nextStringLit(s string) (string, error) {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return s[:i+1], nil
		}
	}
	return "", fmt.Errorf("unterminated string in want clause %q", s)
}
