// Package load type-checks Go packages from source using only the
// standard library, so rmslint needs neither network access nor
// golang.org/x/tools. It shells out to `go list -deps -json` for
// package discovery (which applies build constraints and module
// resolution exactly as the build does) and then runs go/types over
// the whole dependency graph — standard library included — in
// dependency order, so every analyzer sees fully resolved types.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked package.
type Package struct {
	Path     string
	Dir      string
	Standard bool // part of the Go standard library

	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// Module loads the packages matched by patterns (typically "./...")
// in the module rooted at dir, plus their entire dependency graph,
// and returns only the matched module packages, fully type-checked,
// in `go list` order. Test files are not loaded: the determinism
// invariants govern production code, while tests legitimately use
// wall-clock timeouts and goroutines. whole reports whether the load
// holds every package of the main module; a narrowed pattern leaves
// callers outside it.
func Module(fset *token.FileSet, dir string, patterns ...string) (pkgs []*Package, whole bool, err error) {
	pkgs, _, err = graph(fset, dir, patterns)
	if err != nil {
		return nil, false, err
	}
	out, err := goList(dir, "-find", "-f", "{{if .Module}}{{if .Module.Main}}{{.ImportPath}}{{end}}{{end}}", "all")
	if err != nil {
		return nil, false, err
	}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.Path] = true
	}
	for _, path := range strings.Fields(string(out)) {
		if !loaded[path] {
			return pkgs, false, nil
		}
	}
	return pkgs, true, nil
}

// Deps type-checks the named import paths (typically the standard
// library packages test fixtures import) together with their
// dependency graphs and returns them as an Importer, to which a
// caller adds the packages it checks on top.
//
//lint:allow deadcode test support: the linttest fixture harness loads its standard-library imports here
func Deps(fset *token.FileSet, dir string, paths ...string) (Importer, error) {
	if len(paths) == 0 {
		return Importer{"unsafe": types.Unsafe}, nil
	}
	_, typed, err := graph(fset, dir, paths)
	return typed, err
}

// graph lists patterns with -deps, type-checks the whole graph from
// source in dependency order, and returns the non-standard packages
// in list order plus the full path -> types map.
func graph(fset *token.FileSet, dir string, patterns []string) ([]*Package, Importer, error) {
	out, err := goList(dir, append([]string{"-deps", "-json=ImportPath,Dir,GoFiles,Standard"}, patterns...)...)
	if err != nil {
		return nil, nil, err
	}

	var listed []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		listed = append(listed, p)
	}

	typed := Importer{"unsafe": types.Unsafe}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.ImportPath == "unsafe" {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		p, err := Check(fset, lp.ImportPath, files, typed)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		typed[lp.ImportPath] = p.Pkg
		if !lp.Standard {
			p.Dir = lp.Dir
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, typed, nil
}

// goList runs `go list args...` in dir and returns its stdout.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	// CGO_ENABLED=0 keeps every listed package pure Go, so the whole
	// graph — net, os, runtime — type-checks from source.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// Check parses and type-checks one package from the named files,
// resolving imports through imp. The first type error aborts: the
// analyzers depend on complete type information, so a partially
// checked package would silently weaken them.
func Check(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Files: files, Pkg: pkg, Info: info}, nil
}

// Importer is a types.Importer over an accumulating path -> package
// map; dependency-ordered loading guarantees the entry exists by the
// time an importer asks for it.
type Importer map[string]*types.Package

func (m Importer) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	// Standard-library packages import their vendored dependencies by
	// the unvendored path (net -> golang.org/x/net/dns/dnsmessage), but
	// `go list` reports those packages under the GOROOT vendor prefix.
	if p, ok := m["vendor/"+path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("package %q not loaded", path)
}
