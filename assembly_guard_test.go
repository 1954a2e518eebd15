package globuscompute

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

// assemblies are the two files allowed to construct a deployment: the cloud
// side and the endpoint side. Every binary, harness and in-process testbed
// starts its half through them, so what tests run is what ships.
var assemblies = map[string]bool{
	"internal/webservice/stack.go": true,
	"internal/endpoint/stack.go":   true,
}

// assembled maps a package directory to the constructors only an assembly
// (or a test, or benchmark/'s layer probes) may call.
var assembled = map[string][]string{
	"internal/webservice": {"New"},
	"internal/durable":    {"OpenStore", "OpenBroker"},
	"internal/endpoint":   {"New", "NewRunner"},
	"internal/engine":     {"New"},
	"internal/broker":     {"NewReconnecting"},
}

// TestOneAssemblyPerSide fails when non-test code outside the two assemblies
// and benchmark/ wires a service, a durable layer, an agent, a runner, an
// engine or a reconnecting broker connection by hand.
func TestOneAssemblyPerSide(t *testing.T) {
	const module = "globuscompute/"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || assemblies[path] {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// Local name of each guarded package this file imports; the file's
		// own package is reached with no qualifier.
		pkgs := map[string]string{"": filepath.ToSlash(filepath.Dir(path))}
		for _, imp := range file.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ipath, module)
			if !ok || assembled[dir] == nil {
				continue
			}
			name := filepath.Base(dir)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgs[name] = dir
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var qual, fn string
			switch f := call.Fun.(type) {
			case *ast.Ident:
				fn = f.Name
			case *ast.SelectorExpr:
				if x, ok := f.X.(*ast.Ident); ok {
					qual, fn = x.Name, f.Sel.Name
				}
			}
			for _, guarded := range assembled[pkgs[qual]] {
				if fn == guarded {
					t.Errorf("%s: calls %s.%s; only internal/webservice/stack.go and internal/endpoint/stack.go may (DESIGN.md, \"One assembly per side\")",
						fset.Position(call.Pos()), filepath.Base(pkgs[qual]), fn)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
