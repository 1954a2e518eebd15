package mep

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/idmap"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
	"globuscompute/internal/template"
	"globuscompute/internal/webservice"
)

// fakeEndpoint records spawn/stop and reports idleness.
type fakeEndpoint struct {
	mu       sync.Mutex
	stopped  bool
	busy     bool
	activity time.Time
}

func (f *fakeEndpoint) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stopped = true
}

func (f *fakeEndpoint) LastActivity() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.activity
}

func (f *fakeEndpoint) Busy() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.busy
}

func (f *fakeEndpoint) isStopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stopped
}

type spawnRecorder struct {
	mu       sync.Mutex
	requests []SpawnRequest
	eps      []*fakeEndpoint
	fail     error
}

func (s *spawnRecorder) spawn(_ context.Context, req SpawnRequest) (UserEndpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return nil, s.fail
	}
	s.requests = append(s.requests, req)
	ep := &fakeEndpoint{activity: time.Now()}
	s.eps = append(s.eps, ep)
	return ep, nil
}

func (s *spawnRecorder) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.requests)
}

const testTemplate = `{"engine": {"type": "GlobusComputeEngine", "nodes_per_block": {{ NODES }}},
"provider": {"type": "SlurmProvider", "account": "{{ ACCOUNT }}", "walltime": "{{ WALLTIME|default("00:10:00") }}"}}`

func testSchema() template.Schema {
	min, max := 1.0, 8.0
	return template.Schema{Properties: map[string]template.Property{
		"NODES":    {Type: template.TypeInteger, Required: true, Minimum: &min, Maximum: &max},
		"ACCOUNT":  {Type: template.TypeString, Required: true, Pattern: `[a-z0-9]+`},
		"WALLTIME": {Type: template.TypeString, Pattern: `\d{2}:\d{2}:\d{2}`},
	}}
}

type mepHarness struct {
	brk *broker.Broker
	mgr *Manager
	rec *spawnRecorder
	id  protocol.UUID
}

func newMEPHarness(t *testing.T, mutate func(*Config)) *mepHarness {
	t.Helper()
	brk := broker.New()
	id := protocol.NewUUID()
	if err := brk.Declare(webservice.CommandQueue(id)); err != nil {
		t.Fatal(err)
	}
	mapper, err := idmap.NewExpressionMapper([]idmap.Rule{{
		Match: `(.*)@uchicago\.edu`, Output: "{0}",
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec := &spawnRecorder{}
	cfg := Config{
		EndpointID: id,
		Conn:       broker.LocalConn(brk),
		Mapper:     mapper,
		Template:   testTemplate,
		Schema:     testSchema(),
		Spawn:      rec.spawn,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	mgr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		mgr.Stop()
		brk.Close()
	})
	return &mepHarness{brk: brk, mgr: mgr, rec: rec, id: id}
}

// sendStart publishes a start command and returns the child ID.
func (h *mepHarness) sendStart(t *testing.T, username string, userConfig string) protocol.UUID {
	t.Helper()
	child := protocol.NewUUID()
	cmd := webservice.StartEndpointCommand{
		ChildEndpointID: child,
		UserIdentity:    auth.Identity{Username: username, Provider: "test"},
		UserConfig:      json.RawMessage(userConfig),
		ConfigHash:      "h-" + string(child[:8]),
	}
	body, err := json.Marshal(cmd)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.brk.Publish(webservice.CommandQueue(h.id), body); err != nil {
		t.Fatal(err)
	}
	return child
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSpawnPipeline(t *testing.T) {
	h := newMEPHarness(t, nil)
	child := h.sendStart(t, "alice@uchicago.edu", `{"NODES": 4, "ACCOUNT": "alloc1"}`)
	waitFor(t, func() bool { return h.rec.count() == 1 }, "spawn never happened")
	req := h.rec.requests[0]
	if req.LocalUser != "alice" {
		t.Errorf("local user = %q", req.LocalUser)
	}
	if req.ChildEndpointID != child {
		t.Errorf("child ID mismatch")
	}
	// Rendered config is valid and carries the user's values + defaults.
	cfg, err := ParseEndpointConfig(req.RenderedConfig)
	if err != nil {
		t.Fatalf("rendered config invalid: %v\n%s", err, req.RenderedConfig)
	}
	if cfg.Engine.NodesPerBlock != 4 || cfg.Provider.Account != "alloc1" {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Provider.Walltime != "00:10:00" {
		t.Errorf("default walltime = %q", cfg.Provider.Walltime)
	}
	stats := h.mgr.Stats()
	if stats.ActiveChildren != 1 || stats.ChildrenSpawned != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.ByLocalUser["alice"] != 1 {
		t.Errorf("by-user = %v", stats.ByLocalUser)
	}
}

func TestUnmappedIdentityRejected(t *testing.T) {
	h := newMEPHarness(t, nil)
	h.sendStart(t, "intruder@evil.example", `{"NODES": 1, "ACCOUNT": "x1"}`)
	waitFor(t, func() bool { return h.mgr.Stats().IdentityRejected == 1 }, "rejection not recorded")
	if h.rec.count() != 0 {
		t.Error("unauthorized identity spawned an endpoint")
	}
}

func TestSchemaViolationsRejected(t *testing.T) {
	h := newMEPHarness(t, nil)
	cases := []string{
		`{"ACCOUNT": "a1"}`,                       // missing required NODES
		`{"NODES": 99, "ACCOUNT": "a1"}`,          // above maximum
		`{"NODES": 2, "ACCOUNT": "BAD CAPS"}`,     // pattern violation
		`{"NODES": 2, "ACCOUNT": "a1", "X": "y"}`, // unknown property
		`{"NODES": 2, "ACCOUNT": "a1", "WALLTIME": "forever"}`,
	}
	for _, c := range cases {
		h.sendStart(t, "alice@uchicago.edu", c)
	}
	waitFor(t, func() bool { return h.mgr.Stats().ConfigRejected == int64(len(cases)) },
		"rejections not recorded")
	if h.rec.count() != 0 {
		t.Errorf("%d invalid configs spawned endpoints", h.rec.count())
	}
}

func TestMalformedCommandIgnored(t *testing.T) {
	h := newMEPHarness(t, nil)
	h.brk.Publish(webservice.CommandQueue(h.id), []byte("garbage"))
	// A valid command afterwards still works.
	h.sendStart(t, "alice@uchicago.edu", `{"NODES": 1, "ACCOUNT": "a1"}`)
	waitFor(t, func() bool { return h.rec.count() == 1 }, "valid command after poison never processed")
}

func TestDuplicateChildIgnored(t *testing.T) {
	h := newMEPHarness(t, nil)
	child := h.sendStart(t, "alice@uchicago.edu", `{"NODES": 1, "ACCOUNT": "a1"}`)
	waitFor(t, func() bool { return h.rec.count() == 1 }, "first spawn")
	// Redeliver the same child ID.
	cmd := webservice.StartEndpointCommand{
		ChildEndpointID: child,
		UserIdentity:    auth.Identity{Username: "alice@uchicago.edu"},
		UserConfig:      json.RawMessage(`{"NODES": 1, "ACCOUNT": "a1"}`),
	}
	body, _ := json.Marshal(cmd)
	h.brk.Publish(webservice.CommandQueue(h.id), body)
	time.Sleep(50 * time.Millisecond)
	if h.rec.count() != 1 {
		t.Errorf("duplicate start spawned again: %d", h.rec.count())
	}
}

func TestSpawnFailureCounted(t *testing.T) {
	h := newMEPHarness(t, func(c *Config) {})
	h.rec.fail = errors.New("fork failed")
	h.sendStart(t, "alice@uchicago.edu", `{"NODES": 1, "ACCOUNT": "a1"}`)
	waitFor(t, func() bool {
		return h.mgr.Metrics.Counter("start_failures").Value() == 1
	}, "failure not counted")
	if h.mgr.Stats().ActiveChildren != 0 {
		t.Error("failed spawn left a child record")
	}
}

func TestIdleReaping(t *testing.T) {
	h := newMEPHarness(t, func(c *Config) { c.IdleTimeout = 50 * time.Millisecond })
	h.sendStart(t, "alice@uchicago.edu", `{"NODES": 1, "ACCOUNT": "a1"}`)
	waitFor(t, func() bool { return h.rec.count() == 1 }, "spawn")
	ep := h.rec.eps[0]
	waitFor(t, func() bool { return ep.isStopped() }, "idle child never reaped")
	if h.mgr.Stats().ChildrenReaped != 1 {
		t.Errorf("stats = %+v", h.mgr.Stats())
	}
}

func TestBusyChildNotReaped(t *testing.T) {
	h := newMEPHarness(t, func(c *Config) { c.IdleTimeout = 40 * time.Millisecond })
	h.sendStart(t, "alice@uchicago.edu", `{"NODES": 1, "ACCOUNT": "a1"}`)
	waitFor(t, func() bool { return h.rec.count() == 1 }, "spawn")
	ep := h.rec.eps[0]
	ep.mu.Lock()
	ep.busy = true
	ep.activity = time.Now().Add(-time.Hour)
	ep.mu.Unlock()
	time.Sleep(150 * time.Millisecond)
	if ep.isStopped() {
		t.Error("busy child was reaped")
	}
}

func TestStopTerminatesChildren(t *testing.T) {
	h := newMEPHarness(t, nil)
	h.sendStart(t, "alice@uchicago.edu", `{"NODES": 1, "ACCOUNT": "a1"}`)
	waitFor(t, func() bool { return h.rec.count() == 1 }, "spawn")
	h.mgr.Stop()
	if !h.rec.eps[0].isStopped() {
		t.Error("child survived manager stop")
	}
}

// TestManagerHeartbeatsUntilStop runs a manager under a service whose watchdog
// gives up on an endpoint after 80 ms of silence: the manager has to keep
// heartbeating to stay online, and goes offline once, by its own report, at
// Stop.
func TestManagerHeartbeatsUntilStop(t *testing.T) {
	brk := broker.New()
	defer brk.Close()
	svc, err := webservice.New(webservice.Config{
		Store: statestore.New(), Broker: brk, Objects: objectstore.New(), Auth: auth.NewService(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := svc.RegisterEndpoint(webservice.RegisterEndpointRequest{Name: "mep", Owner: "admin", MultiUser: true})
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 80 * time.Millisecond
	defer svc.StartWatchdog(webservice.WatchdogConfig{HeartbeatTimeout: timeout, Interval: 5 * time.Millisecond})()

	mapper, err := idmap.NewExpressionMapper([]idmap.Rule{{Match: `(.*)`, Output: "{0}"}})
	if err != nil {
		t.Fatal(err)
	}
	var offline atomic.Int64
	mgr, err := New(Config{
		EndpointID: id, Conn: broker.LocalConn(brk), Mapper: mapper,
		Template: testTemplate, Schema: testSchema(), Spawn: (&spawnRecorder{}).spawn,
		Heartbeat: func(online bool) {
			if !online {
				offline.Add(1)
			}
			if err := svc.RecordHeartbeat(id, online, nil, nil); err != nil {
				t.Errorf("heartbeat: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.heartbeatEvery = timeout / 8
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	status := func() statestore.EndpointStatus {
		rec, err := svc.GetEndpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Status
	}
	time.Sleep(3 * timeout)
	if got := status(); got != statestore.EndpointOnline {
		t.Errorf("status after three watchdog timeouts = %s, want online", got)
	}
	if v := svc.Metrics.Counter("endpoints_marked_offline").Value(); v != 0 {
		t.Errorf("watchdog marked a heartbeating manager offline %d times", v)
	}
	mgr.Stop()
	if got := status(); got != statestore.EndpointOffline {
		t.Errorf("status after Stop = %s, want offline", got)
	}
	time.Sleep(timeout / 2)
	if n := offline.Load(); n != 1 || status() != statestore.EndpointOffline {
		t.Errorf("offline reports = %d, status %s; want exactly one and no heartbeat after it", n, status())
	}
}

func TestConfigValidationAtConstruction(t *testing.T) {
	brk := broker.New()
	defer brk.Close()
	mapper, err := idmap.NewExpressionMapper([]idmap.Rule{{Match: `(.*)`, Output: "{0}"}})
	if err != nil {
		t.Fatal(err)
	}
	good := Config{
		EndpointID: protocol.NewUUID(), Conn: broker.LocalConn(brk),
		Mapper: mapper, Template: "{}", Spawn: func(context.Context, SpawnRequest) (UserEndpoint, error) { return nil, nil },
	}
	cases := []func(Config) Config{
		func(c Config) Config { c.EndpointID = "bad"; return c },
		func(c Config) Config { c.Conn = nil; return c },
		func(c Config) Config { c.Mapper = nil; return c },
		func(c Config) Config { c.Spawn = nil; return c },
		func(c Config) Config { c.Template = ""; return c },
	}
	for i, mutate := range cases {
		if _, err := New(mutate(good)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := New(good); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestParseEndpointConfig(t *testing.T) {
	good := `{"engine": {"type": "GlobusComputeEngine", "nodes_per_block": 2},
	          "provider": {"type": "SlurmProvider", "walltime": "01:30:00"}}`
	cfg, err := ParseEndpointConfig(good)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine.NodesPerBlock != 2 {
		t.Errorf("cfg = %+v", cfg)
	}
	bad := []string{
		`{not json`,
		`{"engine": {"type": "WarpEngine"}, "provider": {"type": "SlurmProvider"}}`,
		`{"engine": {"type": "GlobusComputeEngine"}, "provider": {"type": "CloudProvider"}}`,
		`{"engine": {"type": "GlobusComputeEngine"}}`,
		`{"provider": {"type": "SlurmProvider"}}`,
		`{"engine": {"type": "GlobusComputeEngine", "nodes_per_block": -1}, "provider": {"type": "LocalProvider"}}`,
		`{"engine": {"type": "GlobusComputeEngine"}, "provider": {"type": "SlurmProvider", "walltime": "bad"}}`,
		`{"engine": {"type": "GlobusComputeEngine"}, "provider": {"type": "SlurmProvider"}, "extra": 1}`,
	}
	for _, s := range bad {
		if _, err := ParseEndpointConfig(s); !errors.Is(err, ErrBadConfig) {
			t.Errorf("ParseEndpointConfig(%.40q) = %v, want ErrBadConfig", s, err)
		}
	}
}

func TestParseWalltime(t *testing.T) {
	cases := map[string]time.Duration{
		"00:30:00": 30 * time.Minute,
		"01:00:00": time.Hour,
		"00:00:59": 59 * time.Second,
		"48:00:00": 48 * time.Hour,
	}
	for s, want := range cases {
		got, err := ParseWalltime(s)
		if err != nil || got != want {
			t.Errorf("ParseWalltime(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"", "30:00", "aa:bb:cc", "00:61:00", "00:00:99", "-1:00:00"} {
		if _, err := ParseWalltime(s); err == nil {
			t.Errorf("ParseWalltime(%q) succeeded", s)
		}
	}
}
