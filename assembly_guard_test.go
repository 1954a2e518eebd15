package globuscompute

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// sourceTree is the parsed non-test Go of one module tree.
type sourceTree struct {
	fset  *token.FileSet
	files map[string]*ast.File // keyed by slash path relative to the root
}

// parseTree parses every non-test .go file under root, skipping hidden
// directories and testdata, as the go tool does.
func parseTree(root string) (*sourceTree, error) {
	tree := &sourceTree{fset: token.NewFileSet(), files: map[string]*ast.File{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		tree.files[filepath.ToSlash(rel)], err = parser.ParseFile(tree.fset, path, nil, parser.SkipObjectResolution)
		return err
	})
	return tree, err
}

// repoTree is this module, parsed once for every guard in this file.
var repoTree = sync.OnceValues(func() (*sourceTree, error) { return parseTree(".") })

func loadRepoTree(t *testing.T) *sourceTree {
	t.Helper()
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	return tree
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
	tree := loadRepoTree(t)
	fset := tree.fset
	files := map[string]*ast.File{}
	for path, file := range tree.files {
		if !strings.HasPrefix(path, "benchmark/") {
			files[path] = file
		}
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

// peers names, for each export under internal/ that no non-test code uses,
// the peer that keeps it: benchmark/, a paper experiment or an example, a
// test seam that tests of other behaviour drive or observe state through, a
// test-support package a make suite runs, or the paper section of a public
// SDK method. Keys are pkg.Name, pkg.Type.Method or pkg.Type.Field.
var peers = map[string]string{
	"auth.Service.RegisterPolicy":           "paper security model: the authentication policies EvaluatePolicy enforces on submit",
	"auth.Service.Revoke":                   "paper security model: the revocation introspection refuses",
	"broker.Broker.Depth":                   "test seam: queue depth, read by webservice, endpoint, durable, sdk and core tests",
	"broker.Broker.Unacked":                 "test seam: in-flight deliveries, read by webservice, endpoint, sdk and core tests",
	"chaos.Injector.Fired":                  "make chaos: core's chaos suite (chaos_suite_test.go)",
	"chaos.Injector.SetDisabled":            "make chaos: core's chaos suite (chaos_suite_test.go)",
	"chaos.Injector.TotalFired":             "make chaos: core's chaos suite (chaos_suite_test.go)",
	"chaos.NewInjector":                     "make chaos: core's chaos suite (chaos_suite_test.go)",
	"container.Runtime.Warm":                "test seam: shellfn's container tests read the image cache",
	"core.Testbed.RestartEndpointAgent":     "core testbed: make obs-smoke (TestObsSmoke) and core's chaos tests",
	"core.Testbed.StartRestartableEndpoint": "core testbed: make obs-smoke (TestObsSmoke) and core's chaos tests",
	"durable.WAL.TailRepairs":               "test seam: webservice stack tests read torn-tail repairs after a reopen",
	"mep.EndpointConfig.DisplayName":        "paper Listing 9: the rendered template's display_name, which the strict parser must accept",
	"mep.Manager.Children":                  "test seam: webservice and core load tests read the spawned children",
	"objectstore.Store.TotalBytes":          "test seam: webservice object-sweep tests read the stored bytes",
	"obs.Exposition.Lint":                   "make obs-smoke: TestObsSmoke lints /metrics/fleet",
	"scheduler.Admission.InFlight":          "test seam: webservice overload tests read the in-flight release",
	"sdk.Executor.SubmitKwargs":             "paper contribution (1), the Executor: submit(fn, *args, **kwargs)",
	"sdk.Executor.SubmitRegistered":         "paper contribution (4), MEP allowed functions: submit by function UUID",
	"statestore.Store.SetClock":             "test seam: webservice routing and durable replay tests pin the store clock",
	"trace.Collector.TraceIDs":              "test seam: the reference listing of webservice's TestDebugTraceListOneSnapshot",
}

// stdlibMethods are methods the standard library calls through its own
// interfaces (fmt.Stringer, error, encoding, net/http, io, slog.Handler).
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true,
}

// export is one exported declaration: pkg.Name, pkg.Type.Method or
// pkg.Type.Field, and where it is declared.
type export struct {
	Key string
	Pos token.Position
}

// receiver returns the type name in a method's receiver, nil for a func.
func receiver(d *ast.FuncDecl) *ast.Ident {
	if d.Recv == nil {
		return nil
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	id, _ := typ.(*ast.Ident)
	return id
}

// unpeered lists every exported func, method, type, const and var declared
// in a non-test file under internal/, and every exported field of an
// exported struct there, whose name no non-test file of the tree uses
// outside its declaration (a method receiver is not a use). Matching is by
// name alone, so a collision can only hide dead code. Methods whose name an
// interface in the tree or the standard library declares are skipped. It
// returns the flagged exports not in allow, and the entries of allow that
// are no longer flagged.
func unpeered(tree *sourceTree, allow map[string]string) (flagged []export, stale []string) {
	var decls []export
	declIdents := map[*ast.Ident]bool{}
	used := map[string]bool{}
	ifaceMethods := map[string]bool{}

	for path, file := range tree.files {
		pkg := ""
		if strings.HasPrefix(path, "internal/") {
			pkg = filepath.Base(filepath.Dir(path))
		}
		declare := func(key string, id *ast.Ident) {
			declIdents[id] = true
			if pkg != "" && id.IsExported() {
				decls = append(decls, export{pkg + "." + key, tree.fset.Position(id.Pos())})
			}
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if recv := receiver(d); recv != nil {
					declIdents[recv] = true
					declare(recv.Name+"."+d.Name.Name, d.Name)
				} else {
					declare(d.Name.Name, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name.Name, s.Name)
						st, ok := s.Type.(*ast.StructType)
						if !ok || !s.Name.IsExported() {
							continue
						}
						for _, f := range st.Fields.List {
							for _, name := range f.Names {
								declare(s.Name.Name+"."+name.Name, name)
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							declare(name.Name, name)
						}
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						declIdents[name] = true
						ifaceMethods[name.Name] = true
					}
				}
			case *ast.Ident:
				if !declIdents[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	}

	seen := map[string]bool{}
	for _, d := range decls {
		parts := strings.Split(d.Key, ".")
		name := parts[len(parts)-1]
		if used[name] {
			continue
		}
		if len(parts) == 3 && (ifaceMethods[name] || stdlibMethods[name]) {
			continue
		}
		seen[d.Key] = true
		if _, ok := allow[d.Key]; !ok {
			flagged = append(flagged, d)
		}
	}
	for key := range allow {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].Key < flagged[j].Key })
	sort.Strings(stale)
	return flagged, stale
}

// TestEveryExportHasAPeer fails on an export under internal/ that only tests
// keep alive, and on a peers entry for a name that code uses again or that is
// gone: every retained export names the peer that still needs it, or goes
// (DESIGN.md, "One assembly per side").
func TestEveryExportHasAPeer(t *testing.T) {
	flagged, stale := unpeered(loadRepoTree(t), peers)
	for _, e := range flagged {
		t.Errorf("%s: %s: no non-test code uses it; delete it, or add it to peers naming the peer that needs it", e.Pos, e.Key)
	}
	for _, key := range stale {
		t.Errorf("peers[%q] names an export that is gone or used by code again; remove the entry", key)
	}
}

// TestPeerGuardFixture runs the peer check over testdata/peerguard: a dead
// export, an export only its own test uses, an interface method no code
// calls, a peered export and a stale peers entry. Only the first two and the
// stale entry are reported.
func TestPeerGuardFixture(t *testing.T) {
	tree, err := parseTree(filepath.Join("testdata", "peerguard"))
	if err != nil {
		t.Fatal(err)
	}
	flagged, stale := unpeered(tree, map[string]string{
		"fix.Kept": "an example",
		"fix.Gone": "an example",
	})
	var keys []string
	for _, e := range flagged {
		keys = append(keys, e.Key)
	}
	if got, want := strings.Join(keys, " "), "fix.Dead fix.Tested"; got != want {
		t.Errorf("flagged %q, want %q", got, want)
	}
	if got, want := strings.Join(stale, " "), "fix.Gone"; got != want {
		t.Errorf("stale %q, want %q", got, want)
	}
}
