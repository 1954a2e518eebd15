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

// assemblies are the three files allowed to construct a deployment: the cloud
// side, the endpoint side, and the broker dialer every process reaches the
// cloud side through. Every binary, harness, example and in-process testbed
// starts through them, so what tests run is what ships.
var assemblies = map[string]bool{
	"internal/webservice/stack.go": true,
	"internal/endpoint/stack.go":   true,
	"internal/broker/connect.go":   true,
}

// assembled maps a package directory to the constructors only an assembly
// (or a test, or benchmark/'s layer probes) may call.
var assembled = map[string][]string{
	"internal/webservice": {"New"},
	"internal/durable":    {"OpenStore", "OpenBroker"},
	"internal/endpoint":   {"New", "NewRunner"},
	"internal/engine":     {"New"},
	"internal/broker":     {"Dial", "DialTLS", "NewReconnecting"},
}

// capabilityMethod reports whether a method name belongs to the publish/ack
// surface of broker.Conn and broker.Subscription.
func capabilityMethod(name string) bool {
	return strings.HasPrefix(name, "Publish") || strings.HasPrefix(name, "Ack")
}

func hasCapabilityMethod(it *ast.InterfaceType) bool {
	for _, m := range it.Methods.List {
		for _, name := range m.Names {
			if capabilityMethod(name.Name) {
				return true
			}
		}
	}
	return false
}

// TestOneAssemblyPerSide fails when non-test code outside the assemblies and
// benchmark/ wires a service, a durable layer, an agent, a runner, an engine
// or a broker connection by hand, and when any non-test file type-asserts its
// way to a publish or ack capability: broker.Conn and broker.Subscription are
// the whole interface, so there is nothing narrower to probe for.
func TestOneAssemblyPerSide(t *testing.T) {
	const module = "globuscompute/"
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files[path], err = parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Named interfaces, per package directory, that carry a publish or ack
	// method. broker.Conn and broker.Subscription are the interface itself.
	capability := map[string]map[string]bool{}
	for path, file := range files {
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			it, ok := ts.Type.(*ast.InterfaceType)
			if !ok || !hasCapabilityMethod(it) {
				return true
			}
			if dir == "internal/broker" && (ts.Name.Name == "Conn" || ts.Name.Name == "Subscription") {
				return true
			}
			if capability[dir] == nil {
				capability[dir] = map[string]bool{}
			}
			capability[dir][ts.Name.Name] = true
			return true
		})
	}

	for path, file := range files {
		// Local name of each package of this module the file imports; the
		// file's own package is reached with no qualifier.
		pkgs := map[string]string{"": filepath.ToSlash(filepath.Dir(path))}
		for _, imp := range file.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ipath, module)
			if !ok {
				continue
			}
			name := filepath.Base(dir)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgs[name] = dir
		}
		// qualified splits an identifier or pkg.Name expression.
		qualified := func(e ast.Expr) (qual, name string, ok bool) {
			switch f := e.(type) {
			case *ast.Ident:
				return "", f.Name, true
			case *ast.SelectorExpr:
				if x, isIdent := f.X.(*ast.Ident); isIdent {
					return x.Name, f.Sel.Name, true
				}
			}
			return "", "", false
		}
		narrows := func(typ ast.Expr) bool {
			if it, ok := typ.(*ast.InterfaceType); ok {
				return hasCapabilityMethod(it)
			}
			qual, name, ok := qualified(typ)
			dir, known := pkgs[qual]
			return ok && known && capability[dir][name]
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if assemblies[path] {
					return true
				}
				qual, fn, ok := qualified(n.Fun)
				dir, known := pkgs[qual]
				if !ok || !known {
					return true
				}
				for _, guarded := range assembled[dir] {
					if fn == guarded {
						t.Errorf("%s: calls %s.%s; only internal/webservice/stack.go, internal/endpoint/stack.go and internal/broker/connect.go may (DESIGN.md, \"One assembly per side\")",
							fset.Position(n.Pos()), filepath.Base(dir), fn)
					}
				}
			case *ast.TypeAssertExpr:
				if n.Type != nil && narrows(n.Type) {
					t.Errorf("%s: type-asserts to a publish/ack capability; broker.Conn and broker.Subscription have no optional part",
						fset.Position(n.Pos()))
				}
			case *ast.TypeSwitchStmt:
				for _, stmt := range n.Body.List {
					for _, typ := range stmt.(*ast.CaseClause).List {
						if narrows(typ) {
							t.Errorf("%s: type-switches on a publish/ack capability; broker.Conn and broker.Subscription have no optional part",
								fset.Position(typ.Pos()))
						}
					}
				}
			}
			return true
		})
	}
}
