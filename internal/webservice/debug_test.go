package webservice

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/statestore"
	"globuscompute/internal/trace"
)

// newTracedHTTPFixture is newHTTPFixture with tracing enabled on the service
// and broker, sharing one collector.
func newTracedHTTPFixture(t *testing.T) (*httpFixture, *trace.Collector) {
	t.Helper()
	col := trace.NewCollector(256)
	f := &fixture{
		store: statestore.New(),
		brk:   broker.New(),
		objs:  objectstore.New(),
		authS: auth.NewService(),
	}
	f.brk.Tracer = trace.NewTracer("broker", col)
	svc, err := New(Config{
		Store: f.store, Broker: f.brk, Objects: f.objs, Auth: f.authS,
		Tracer: trace.NewTracer("webservice", col),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.svc = svc
	tok, err := f.authS.Issue(
		auth.Identity{Username: "alice@uchicago.edu", Provider: "uchicago"},
		[]string{auth.ScopeCompute, auth.ScopeManage}, time.Hour, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	f.token = tok
	t.Cleanup(func() {
		f.svc.Close()
		f.brk.Close()
	})
	srv, err := ServeHTTP(f.svc, "127.0.0.1:0", "broker:0", "objects:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &httpFixture{fixture: f, srv: srv}, col
}

// runTracedTask submits one task through the traced fixture and returns the
// trace ID of its submit span.
func runTracedTask(t *testing.T, h *httpFixture, col *trace.Collector) trace.TraceID {
	t.Helper()
	fn := h.registerFunction(t)
	ep := h.registerEndpoint(t, RegisterEndpointRequest{Name: "traced", Owner: "o"})
	h.fakeAgent(t, ep)
	ids, err := h.svc.Submit(h.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte(`"x"`)}})
	if err != nil {
		t.Fatal(err)
	}
	waitTask(t, h.svc, ids[0], 5*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, sp := range col.Snapshot() {
			if sp.Name == "submit" {
				return sp.TraceID
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("submit span never recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDebugTracesEndpoint(t *testing.T) {
	h, col := newTracedHTTPFixture(t)
	id := runTracedTask(t, h, col)

	// Unauthorized without a valid token.
	resp, err := http.Get("http://" + h.srv.Addr() + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no token: status %d", resp.StatusCode)
	}

	// Listing names the trace.
	resp, body := h.do(t, "GET", "/debug/traces?token="+h.token.Value, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), id.String()) {
		t.Errorf("listing missing trace %s:\n%s", id, body)
	}

	// Per-trace view renders the critical path.
	resp, body = h.do(t, "GET", "/debug/traces?id="+id.String()+"&token="+h.token.Value, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detail status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "critical path") || !strings.Contains(string(body), "submit") {
		t.Errorf("detail view:\n%s", body)
	}

	// Unknown ID is a 404.
	resp, _ = h.do(t, "GET", "/debug/traces?id=deadbeef&token="+h.token.Value, "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d", resp.StatusCode)
	}

	// JSONL export round-trips through the trace reader.
	resp, body = h.do(t, "GET", "/debug/traces?format=jsonl&token="+h.token.Value, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jsonl status = %d", resp.StatusCode)
	}
	spans, err := trace.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Error("jsonl export empty")
	}

	// Programmatic analysis agrees with the HTTP view.
	sum, err := h.svc.AnalyzeTrace(id)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TraceID != id || sum.Spans == 0 {
		t.Errorf("AnalyzeTrace = %+v", sum)
	}
}

func TestDebugTracesDisabledWithoutTracer(t *testing.T) {
	h := newHTTPFixture(t) // untraced fixture
	resp, _ := h.do(t, "GET", "/debug/traces?token="+h.token.Value, "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404 when tracing is off", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	h, col := newTracedHTTPFixture(t)
	runTracedTask(t, h, col)

	resp, err := http.Get("http://" + h.srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no token: status %d", resp.StatusCode)
	}

	resp, body := h.do(t, "GET", "/metrics?token="+h.token.Value, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{"# TYPE gc_webservice_", "# TYPE gc_broker_", "counter"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%.500s", want, out)
		}
	}
}

// TestMetricsRuntimeCounters: /metrics carries the process's allocation
// and GC counters beside the service's registries.
func TestMetricsRuntimeCounters(t *testing.T) {
	h := newHTTPFixture(t)
	resp, body := h.do(t, "GET", "/metrics?token="+h.token.Value, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, name := range []string{"go_gc_cycles_total_gc_cycles_total", "go_gc_heap_allocs_bytes_total",
		"go_gc_heap_allocs_objects_total", "go_cpu_classes_gc_total_cpu_seconds_total"} {
		if !bytes.Contains(body, []byte("# TYPE "+name+" counter\n"+name+" ")) {
			t.Errorf("metrics lack counter %s", name)
		}
	}
}
