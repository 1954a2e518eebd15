package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/idmap"
	"globuscompute/internal/mep"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
)

func uchicagoMapper(t *testing.T) idmap.Mapper {
	t.Helper()
	m, err := idmap.NewExpressionMapper([]idmap.Rule{{
		Match: `(.*)@uchicago\.edu`, Output: "{0}",
	}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitSpawned returns the MEP's stats once they count want spawned children
// (or after 5 s). The manager records a child just after its spawn returns,
// and by then the child may already have run the task that asked for it.
func waitSpawned(mgr *mep.Manager, want int64) mep.Stats {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := mgr.Stats()
		if st.ChildrenSpawned >= want || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

type stack struct {
	tb     *core.Testbed
	client *sdk.Client
	conn   broker.Conn
	objs   *objectstore.Client
}

func newStack(t *testing.T) *stack {
	t.Helper()
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tok, err := tb.IssueToken("alice@uchicago.edu", "uchicago")
	if err != nil {
		t.Fatal(err)
	}
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	return &stack{
		tb:     tb,
		client: sdk.NewClient(tb.ServiceAddr(), tok.Value),
		conn:   bc,
		objs:   objectstore.NewClient(tb.ObjectsSrv.Addr()),
	}
}

func (s *stack) executor(t *testing.T, ep protocol.UUID) *sdk.Executor {
	t.Helper()
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: s.client, EndpointID: ep, Conn: s.conn, Objects: s.objs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	return ex
}

// TestMEPStartEndpointFlow reproduces Fig. 1 end to end: a task submitted
// to a multi-user endpoint spawns a user endpoint under the mapped local
// account, which then executes the task.
func TestMEPStartEndpointFlow(t *testing.T) {
	s := newStack(t)
	mepID, mgr, err := s.tb.StartMEP(core.MEPOptions{
		Name: "cluster-mep", Owner: "admin@uchicago.edu",
		Mapper:      uchicagoMapper(t),
		SandboxRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := s.executor(t, mepID)
	ex.UserEndpointConfig = map[string]any{
		"NODES_PER_BLOCK": 2,
		"ACCOUNT_ID":      "314159265",
		"WALLTIME":        "00:20:00",
	}
	// The shell task observes the mapped local user (privilege drop).
	sf := sdk.NewShellFunction("echo user=$GC_LOCAL_USER")
	fut, err := ex.SubmitShell(sf, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sr, err := fut.ShellResult(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Stdout != "user=alice" {
		t.Errorf("stdout = %q, want user=alice (identity mapping)", sr.Stdout)
	}
	stats := waitSpawned(mgr, 1)
	if stats.ChildrenSpawned != 1 || stats.ActiveChildren != 1 {
		t.Errorf("mep stats = %+v", stats)
	}
	if stats.ByLocalUser["alice"] != 1 {
		t.Errorf("by-user = %v", stats.ByLocalUser)
	}
}

// TestMEPConfigHashReuse verifies repeated submissions with the same user
// config share one user endpoint while different configs spawn new ones.
func TestMEPConfigHashReuse(t *testing.T) {
	s := newStack(t)
	mepID, mgr, err := s.tb.StartMEP(core.MEPOptions{
		Name: "mep", Owner: "admin@uchicago.edu", Mapper: uchicagoMapper(t),
		SandboxRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fn := &sdk.PythonFunction{Entrypoint: "identity"}

	ex := s.executor(t, mepID)
	ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "a1"}
	for i := 0; i < 5; i++ {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.ResultWithin(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := waitSpawned(mgr, 1).ChildrenSpawned; got != 1 {
		t.Errorf("children after same-config submits = %d, want 1", got)
	}

	// New executor, different config -> second UEP.
	ex2 := s.executor(t, mepID)
	ex2.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 2, "ACCOUNT_ID": "a1"}
	fut, err := ex2.Submit(fn, "again")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.ResultWithin(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := waitSpawned(mgr, 2).ChildrenSpawned; got != 2 {
		t.Errorf("children after new config = %d, want 2", got)
	}
}

// TestMEPSchemaRejection: an out-of-policy user config is rejected by the
// MEP and the task fails rather than hangs... the web service spawns the
// child record optimistically, so the failure surfaces as the task never
// starting; the MEP records a config rejection.
func TestMEPSchemaRejection(t *testing.T) {
	s := newStack(t)
	mepID, mgr, err := s.tb.StartMEP(core.MEPOptions{
		Name: "mep", Owner: "admin@uchicago.edu", Mapper: uchicagoMapper(t),
		SandboxRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := s.executor(t, mepID)
	ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 9999, "ACCOUNT_ID": "a1"}
	if _, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Stats().ConfigRejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("config rejection never recorded")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if mgr.Stats().ChildrenSpawned != 0 {
		t.Error("out-of-policy config spawned an endpoint")
	}
}

// TestMEPIdleReap verifies user endpoints are destroyed after their tasks
// complete ("once the submitted tasks are completed, the user endpoint is
// destroyed").
func TestMEPIdleReap(t *testing.T) {
	s := newStack(t)
	mepID, mgr, err := s.tb.StartMEP(core.MEPOptions{
		Name: "mep", Owner: "admin@uchicago.edu", Mapper: uchicagoMapper(t),
		IdleTimeout: 100 * time.Millisecond,
		SandboxRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := s.executor(t, mepID)
	ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "a1"}
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.ResultWithin(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Stats().ChildrenReaped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle child never reaped: %+v", mgr.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if mgr.Stats().ActiveChildren != 0 {
		t.Errorf("active children = %d after reap", mgr.Stats().ActiveChildren)
	}
}

// TestMEPMPITemplate runs an MPIFunction through a MEP whose template
// selects the GlobusMPIEngine.
func TestMEPMPITemplate(t *testing.T) {
	s := newStack(t)
	tmpl := `{
	  "engine": {"type": "GlobusMPIEngine", "nodes_per_block": {{ NODES_PER_BLOCK }}, "mpi_launcher": "srun"},
	  "provider": {"type": "SlurmProvider", "partition": "default", "account": "{{ ACCOUNT_ID }}"}
	}`
	mepID, _, err := s.tb.StartMEP(core.MEPOptions{
		Name: "mpi-mep", Owner: "admin@uchicago.edu", Mapper: uchicagoMapper(t),
		Template:    tmpl,
		SandboxRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := s.executor(t, mepID)
	ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 2, "ACCOUNT_ID": "a1"}
	ex.ResourceSpec = protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 2}
	fut, err := ex.SubmitMPI(sdk.NewMPIFunction("echo $GC_NODE"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sr, err := fut.ShellResult(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(sr.Stdout, "\n"); len(lines) != 4 {
		t.Errorf("rank lines = %d, want 4: %q", len(lines), sr.Stdout)
	}
	if !strings.HasPrefix(sr.Cmd, "srun ") {
		t.Errorf("cmd = %q, want srun prefix from template", sr.Cmd)
	}
}

// TestMEPUnmappedUserTaskNeverRuns: unauthorized identities must not get a
// user endpoint.
func TestMEPUnauthorizedIdentity(t *testing.T) {
	s := newStack(t)
	mepID, mgr, err := s.tb.StartMEP(core.MEPOptions{
		Name: "mep", Owner: "admin@uchicago.edu", Mapper: uchicagoMapper(t),
		SandboxRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// eve authenticates fine but has no identity mapping on this resource.
	evilTok, err := s.tb.IssueToken("eve@evil.example", "evil")
	if err != nil {
		t.Fatal(err)
	}
	evilClient := sdk.NewClient(s.tb.ServiceAddr(), evilTok.Value)
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: evilClient, EndpointID: mepID, Conn: s.conn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "a1"}
	if _, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Stats().IdentityRejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("identity rejection never recorded")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if mgr.Stats().ChildrenSpawned != 0 {
		t.Error("unauthorized identity spawned an endpoint")
	}
}

// TestTCPTransportEndToEnd drives the full SDK → service → broker →
// endpoint path with the engine's framed-TCP interchange transport.
func TestTCPTransportEndToEnd(t *testing.T) {
	s := newStack(t)
	epID, err := s.tb.StartEndpoint(core.EndpointOptions{
		Name: "tcp-ep", Owner: "alice@uchicago.edu", Workers: 4, Transport: "tcp",
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := s.executor(t, epID)
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	for i := 0; i < 10; i++ {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			t.Fatal(err)
		}
		out, err := fut.ResultWithin(20 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("empty result over TCP transport")
		}
	}
}

// TestUsageAccountingAcrossStack mirrors the §VI statistics: MEPs, spawned
// UEPs, and the UEP fraction of all endpoints.
func TestUsageAccountingAcrossStack(t *testing.T) {
	s := newStack(t)
	if _, err := s.tb.StartEndpoint(core.EndpointOptions{Name: "single", Owner: "alice@uchicago.edu"}); err != nil {
		t.Fatal(err)
	}
	mepID, _, err := s.tb.StartMEP(core.MEPOptions{
		Name: "mep", Owner: "admin@uchicago.edu", Mapper: uchicagoMapper(t),
		SandboxRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := s.executor(t, mepID)
	ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "a1"}
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.ResultWithin(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	u, err := s.client.Usage()
	if err != nil {
		t.Fatal(err)
	}
	// single + mep + 1 spawned UEP = 3 endpoints, 1 MEP, 1 UEP.
	if u.Endpoints != 3 || u.MultiUserEPs != 1 || u.UserEndpoints != 1 {
		t.Errorf("usage = %+v", u)
	}
}
