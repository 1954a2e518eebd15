package globuscompute

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
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

// sourceTree is the parsed non-test Go of one module tree, and the names of
// the test and benchmark funcs its _test.go files declare.
type sourceTree struct {
	fset  *token.FileSet
	files map[string]*ast.File // keyed by slash path relative to the root
	dirs  map[string]bool      // the slash directories of files
	tests map[string]bool      // top-level Test* and Benchmark* func names
}

// parseTree parses every non-test .go file under root, skipping hidden
// directories and testdata, as the go tool does, and collects the Test* and
// Benchmark* func names the _test.go files beside them declare.
func parseTree(root string) (*sourceTree, error) {
	tree := &sourceTree{fset: token.NewFileSet(), files: map[string]*ast.File{}, dirs: map[string]bool{}, tests: map[string]bool{}}
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			// gofmt puts every top-level func at the start of a line, so a
			// line scan finds them without parsing ~30k lines of tests.
			src, err := os.ReadFile(path)
			for _, line := range strings.Split(string(src), "\n") {
				name, ok := strings.CutPrefix(line, "func ")
				if ok && (strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark")) {
					tree.tests[name[:strings.IndexAny(name+"(", "([")]] = true
				}
			}
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		tree.dirs[filepath.ToSlash(filepath.Dir(rel))] = true
		tree.files[rel], err = parser.ParseFile(tree.fset, path, nil, parser.SkipObjectResolution)
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

// modulePackages maps the local name of each package of the tree a file
// imports to its directory; the file's own package is reached with no
// qualifier. An import resolves to the tree directory its path ends with,
// so the module's own name does not matter.
func (tree *sourceTree) modulePackages(path string, file *ast.File) map[string]string {
	pkgs := map[string]string{"": filepath.ToSlash(filepath.Dir(path))}
	for _, imp := range file.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		dir := ""
		for i := 0; i < len(ipath); i++ {
			if ipath[i] == '/' && tree.dirs[ipath[i+1:]] {
				dir = ipath[i+1:]
				break
			}
		}
		if dir == "" {
			continue
		}
		name := filepath.Base(dir)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		pkgs[name] = dir
	}
	return pkgs
}

// qualified splits an identifier or pkg.Name expression.
func qualified(e ast.Expr) (qual, name string, ok bool) {
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
		pkgs := tree.modulePackages(path, file)
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
	"mep.StartSimAgent":                     "make route-smoke and make burst: the simulated fleets of TestRouteSmoke and TestBurstBacklogRecovers",
	"objectstore.Store.TotalBytes":          "test seam: webservice object-sweep tests read the stored bytes",
	"obs.Exposition.Lint":                   "make obs-smoke: TestObsSmoke lints /metrics/fleet",
	"obs.ParseExposition":                   "make obs-smoke: TestObsSmoke parses /metrics and /metrics/fleet through it (and make burst samples them with it)",
	"scheduler.Admission.InFlight":          "test seam: webservice overload tests read the in-flight release",
	"sdk.Executor.SubmitKwargs":             "paper contribution (1), the Executor: submit(fn, *args, **kwargs)",
	"sdk.Executor.Group":                    "make chaos: core's TestChaosExecutorStream reads the executor's group result queue",
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
// also lists every unexported func and method declared in a non-test file
// outside benchmark/ whose name no non-test file of its own package uses.
// It returns the flagged declarations not in allow, and the entries of
// allow that are no longer flagged.
func unpeered(tree *sourceTree, allow map[string]string) (flagged []export, stale []string) {
	var decls []export
	declIdents := map[*ast.Ident]bool{}
	used := map[string]bool{}
	ifaceMethods := map[string]bool{}
	type helper struct {
		export
		dir, name string
	}
	var helpers []helper
	usedIn := map[string]map[string]bool{} // package directory -> names used there

	for path, file := range tree.files {
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := ""
		if strings.HasPrefix(path, "internal/") {
			pkg = filepath.Base(dir)
		}
		declare := func(key string, id *ast.Ident) {
			declIdents[id] = true
			if pkg != "" && id.IsExported() {
				decls = append(decls, export{pkg + "." + key, tree.fset.Position(id.Pos())})
			}
		}
		declareFunc := func(key string, id *ast.Ident) {
			declare(key, id)
			if !id.IsExported() && id.Name != "init" && id.Name != "main" && id.Name != "_" &&
				!strings.HasPrefix(path, "benchmark/") {
				helpers = append(helpers, helper{export{filepath.Base(dir) + "." + key, tree.fset.Position(id.Pos())}, dir, id.Name})
			}
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if recv := receiver(d); recv != nil {
					declIdents[recv] = true
					declareFunc(recv.Name+"."+d.Name.Name, d.Name)
				} else {
					declareFunc(d.Name.Name, d.Name)
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
					if usedIn[dir] == nil {
						usedIn[dir] = map[string]bool{}
					}
					usedIn[dir][n.Name] = true
				}
			}
			return true
		})
	}

	seen := map[string]bool{}
	flag := func(e export) {
		seen[e.Key] = true
		if _, ok := allow[e.Key]; !ok {
			flagged = append(flagged, e)
		}
	}
	for _, d := range decls {
		parts := strings.Split(d.Key, ".")
		name := parts[len(parts)-1]
		if used[name] {
			continue
		}
		if len(parts) == 3 && (ifaceMethods[name] || stdlibMethods[name]) {
			continue
		}
		flag(d)
	}
	for _, h := range helpers {
		if !usedIn[h.dir][h.name] {
			flag(h.export)
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
// export, an export only its own test uses, an unexported func only its own
// test uses, an interface method no code calls, a peered export and a stale
// peers entry. Only the first three and the stale entry are reported.
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
	if got, want := strings.Join(keys, " "), "fix.Dead fix.Tested fix.helper"; got != want {
		t.Errorf("flagged %q, want %q", got, want)
	}
	if got, want := strings.Join(stale, " "), "fix.Gone"; got != want {
		t.Errorf("stale %q, want %q", got, want)
	}
}

// knobs names, for each config field under internal/ that no non-test code
// sets, the peer that keeps it: a test seam that tests of other behaviour in
// another package or a make suite need a non-default value through, a paper
// feature (its PAPER.md or DESIGN.md per-experiment row and the test that
// runs it), or the ROADMAP item that deletes it. Keys are pkg.Type.Field.
var knobs = map[string]string{
	"core.EndpointOptions.AllowedFunctions":         "paper feature: DESIGN.md T7 (allowed functions); sdk's TestScienceGatewayPattern runs an endpoint that executes only approved function UUIDs",
	"core.EndpointOptions.HeartbeatInterval":        "make obs-smoke: TestObsSmokeFleetPipeline heartbeats every 50 ms so its SLOs fire and recover within the test",
	"core.EndpointOptions.MaxAttempts":              "make chaos: core's TestChaosSuiteDeliveryGuarantees sets the attempt budget its worker kills burn",
	"core.EndpointOptions.MetricsInterval":          "make obs-smoke: TestObsSmokeFleetPipeline snapshots every 25 ms so tasks_received federates within a heartbeat",
	"core.EndpointOptions.SuppressOfflineHeartbeat": "make obs-smoke: TestObsSmokeFleetPipeline stops an agent as a crash, with no offline report",
	"core.EndpointOptions.WrapConn":                 "make chaos: core's chaos suite puts fault injection under the agent's broker connection",
	"core.EndpointOptions.WrapRunner":               "make chaos: core's chaos suite wraps the task runner in worker-kill injection",
	"core.MEPOptions.SandboxRoot":                   "test seam: core's MEP tests (TestMEPMPITemplate among them) keep ShellFunction sandboxes under t.TempDir(), out of the working directory",
	"core.MEPOptions.Template":                      "test seam: core's TestMEPMPITemplate renders a template that selects the GlobusMPIEngine",
	"core.Options.Admission":                        "make overload: TestOverloadNoisyNeighborFairness and the other overload tests run the front-door admission controller",
	"core.Options.FleetConfig":                      "make obs-smoke: TestObsSmokeFleetPipeline passes its fleet store sizes through it",
	"core.Options.QueueLimit":                       "make overload: the overload tests bound each endpoint's task queue",
	"core.Options.SLORules":                         "make obs-smoke: TestObsSmokeFleetPipeline shrinks the SLO windows to seconds",
	"engine.Config.IdleTimeout":                     "paper feature: DESIGN.md A3 (provider elasticity); engine's TestScaleInOnIdle releases idle blocks",
	"mep.SimAgentConfig.ServiceTime":                "make route-smoke and make burst: TestRouteSmoke's and TestBurstBacklogRecovers's simulated fleets model per-endpoint service times",
	"obs.FleetConfig.StaleAfter":                    "make obs-smoke: TestObsSmokeFleetPipeline federates a killed endpoint as down after 400 ms, not the 30 s default",
	"scheduler.AdmissionConfig.Now":                 "test seam: webservice's TestSubmitAdmissionRateShed pins the admission clock to check the refill",
	"scheduler.Config.Flavor":                       "paper feature: DESIGN.md substitution row Slurm / PBS / Kubernetes (PBS_NODEFILE); scheduler's TestPBSFlavorEnv",
	"webservice.Config.HeartbeatInterval":           "make route-smoke: TestRouteSmoke's 1000-endpoint fleet reports every 250 ms, which sizes the placement staleness horizon and route cache TTL",
}

// knobType reports whether a type name is a config struct's: *Config,
// *Options or *Opts.
func knobType(name string) bool {
	return ast.IsExported(name) && (strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Opts"))
}

// exprKey renders an identifier or selector chain such as c.cfg.Prefetch,
// and "" for any other expression.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := exprKey(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return exprKey(e.X)
	}
	return ""
}

// reads reports whether an expression contains the selector chain key.
func reads(e ast.Expr, key string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if x, ok := n.(ast.Expr); ok && !found && exprKey(x) == key {
			found = true
		}
		return !found
	})
	return found
}

// unset lists every knob, an exported field without a json tag of an
// exported *Config, *Options or *Opts struct declared in a non-test file
// under internal/, that no non-test file of the tree sets. A set is a key in
// a composite literal of that struct's type, a key of that name in a literal
// whose type is elided, or an assignment to, increment of or address taken
// of a selector ending in that name. An assignment inside an if whose
// condition reads the same selector is defaulting, not a set. Matching is by
// name, so a collision can only hide a dead knob. It returns the flagged
// knobs not in allow, and the entries of allow that are no longer flagged.
func unset(tree *sourceTree, allow map[string]string) (flagged []export, stale []string) {
	type field struct{ dir, typ, name string }
	type knob struct {
		field
		export
	}
	var decls []knob
	typed := map[field]bool{} // name "" marks an unkeyed literal: every field set
	named := map[string]bool{}

	for path, file := range tree.files {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(path, "internal/") {
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !knobType(ts.Name.Name) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, f := range st.Fields.List {
						if f.Tag != nil {
							tag, _ := strconv.Unquote(f.Tag.Value)
							if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
								continue
							}
						}
						for _, name := range f.Names {
							if name.IsExported() {
								key := filepath.Base(dir) + "." + ts.Name.Name + "." + name.Name
								decls = append(decls, knob{field{dir, ts.Name.Name, name.Name}, export{key, tree.fset.Position(name.Pos())}})
							}
						}
					}
				}
			}
		}

		pkgs := tree.modulePackages(path, file)
		var stack []ast.Node
		set := func(e ast.Expr) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			key := exprKey(sel)
			for _, n := range stack {
				if is, ok := n.(*ast.IfStmt); ok && key != "" && reads(is.Cond, key) {
					return
				}
			}
			named[sel.Sel.Name] = true
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			switch n := n.(type) {
			case *ast.CompositeLit:
				qual, typ, ok := qualified(n.Type)
				dir, known := pkgs[qual]
				for _, elt := range n.Elts {
					kv, isKV := elt.(*ast.KeyValueExpr)
					switch {
					case n.Type == nil && isKV:
						if id, isIdent := kv.Key.(*ast.Ident); isIdent {
							named[id.Name] = true
						}
					case ok && known && isKV:
						if id, isIdent := kv.Key.(*ast.Ident); isIdent {
							typed[field{dir, typ, id.Name}] = true
						}
					case ok && known:
						typed[field{dir, typ, ""}] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					set(lhs)
				}
			case *ast.IncDecStmt:
				set(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					set(n.X)
				}
			}
			stack = append(stack, n)
			return true
		})
	}

	seen := map[string]bool{}
	for _, k := range decls {
		if named[k.name] || typed[k.field] || typed[field{k.dir, k.typ, ""}] {
			continue
		}
		seen[k.Key] = true
		if _, ok := allow[k.Key]; !ok {
			flagged = append(flagged, k.export)
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

// TestEveryKnobHasACaller fails on a config field under internal/ that only
// its package's defaulting and tests set, and on a knobs entry for a field
// that code sets again or that is gone: a value with one setting in use is a
// constant (DESIGN.md, "One assembly per side").
func TestEveryKnobHasACaller(t *testing.T) {
	flagged, stale := unset(loadRepoTree(t), knobs)
	for _, k := range flagged {
		t.Errorf("%s: %s: no non-test code sets it; make it a constant, or add it to knobs naming the peer that needs it", k.Pos, k.Key)
	}
	for _, key := range stale {
		t.Errorf("knobs[%q] names a field that is gone or set by code again; remove the entry", key)
	}
}

// TestKnobGuardFixture runs the knob check over testdata/knobguard: a field
// only its package's defaulting sets, a field only a test sets, a field
// cmd/ sets, a json-tagged field, a field set inside an if that reads
// another selector, an allowlisted field and a stale knobs entry. Only the
// first two and the stale entry are reported.
func TestKnobGuardFixture(t *testing.T) {
	tree, err := parseTree(filepath.Join("testdata", "knobguard"))
	if err != nil {
		t.Fatal(err)
	}
	flagged, stale := unset(tree, map[string]string{
		"fix.Config.Kept": "an example",
		"fix.Config.Gone": "an example",
	})
	var keys []string
	for _, k := range flagged {
		keys = append(keys, k.Key)
	}
	if got, want := strings.Join(keys, " "), "fix.Config.DefaultOnly fix.Config.TestOnly"; got != want {
		t.Errorf("flagged %q, want %q", got, want)
	}
	if got, want := strings.Join(stale, " "), "fix.Config.Gone"; got != want {
		t.Errorf("stale %q, want %q", got, want)
	}
}
