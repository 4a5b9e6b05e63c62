package client

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// requestNames are the net/http identifiers that build or send a
// client request.
var requestNames = map[string]bool{
	"NewRequest": true, "NewRequestWithContext": true,
	"Get": true, "Post": true, "Head": true, "DefaultClient": true,
}

// requestSites lists the client-side net/http uses in one Go file: the
// identifiers above and http.Client literals. Server-side use (Server,
// Handler, ResponseWriter, status codes) is not listed.
func requestSites(fset *token.FileSet, path string) ([]string, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	pkg := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "net/http" {
			pkg = "http"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return nil, nil
	}
	isHTTP := func(e ast.Expr, names func(string) bool) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == pkg && names(sel.Sel.Name)
	}
	var sites []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if isHTTP(n, func(name string) bool { return requestNames[name] }) {
				sites = append(sites, fset.Position(n.Pos()).String()+": http."+n.Sel.Name)
			}
		case *ast.CompositeLit:
			if isHTTP(n.Type, func(name string) bool { return name == "Client" }) {
				sites = append(sites, fset.Position(n.Pos()).String()+": http.Client literal")
			}
		}
		return true
	})
	return sites, nil
}

// TestOnlyClientSendsRequests keeps this package the module's one
// rmscaled client: no other non-test Go file may build or send an HTTP
// request. The benchmark module (bench/) and testdata fixtures are out
// of scope.
func TestOnlyClientSendsRequests(t *testing.T) {
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(self, "..", "..", "..")
	fset := token.NewFileSet()

	own, err := requestSites(fset, filepath.Join(self, "client.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(own) == 0 {
		t.Fatal("found no request sites in client.go; the scan is broken")
	}

	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" ||
				path == filepath.Join(root, "bench") || path == self) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		sites, err := requestSites(fset, path)
		for _, s := range sites {
			t.Errorf("%s: HTTP requests go through rmscale/internal/service/client", s)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
