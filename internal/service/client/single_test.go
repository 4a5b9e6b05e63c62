package client

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// requestNames are the net/http identifiers that build, send or read
// a client request: besides the client calls, the transports and
// http.ReadResponse, with which a caller can run an exchange itself.
var requestNames = map[string]bool{
	"NewRequest": true, "NewRequestWithContext": true,
	"Get": true, "Post": true, "Head": true, "DefaultClient": true,
	"Transport": true, "DefaultTransport": true, "ReadResponse": true,
}

// requestLiterals are the net/http types whose composite literals
// build a client or a request.
var requestLiterals = map[string]bool{"Client": true, "Request": true}

// requestSites lists the client-side net/http uses in one Go file: the
// identifiers and literals above. Server-side use (Server, Handler,
// ResponseWriter, status codes) is not listed.
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
			if isHTTP(n.Type, func(name string) bool { return requestLiterals[name] }) {
				sites = append(sites, fset.Position(n.Pos()).String()+": http."+n.Type.(*ast.SelectorExpr).Sel.Name+" literal")
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

// TestRequestSitesSeeExchanges: the scan also flags the net/http parts
// with which a file could run an exchange itself, under any import
// name.
func TestRequestSitesSeeExchanges(t *testing.T) {
	const src = `package p

import web "net/http"

var (
	_ = web.ReadResponse
	_ = &web.Transport{}
	_ = web.DefaultTransport
	_ = &web.Request{Method: "GET"}
	_ = web.StatusOK
)
`
	path := filepath.Join(t.TempDir(), "p.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	sites, err := requestSites(token.NewFileSet(), path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range sites {
		got = append(got, s[strings.Index(s, ": ")+2:])
	}
	want := "http.ReadResponse, http.Transport, http.DefaultTransport, http.Request literal"
	if strings.Join(got, ", ") != want {
		t.Fatalf("request sites %q, want %s", sites, want)
	}
}
