package endpoint

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/engine"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/proxystore"
	"globuscompute/internal/registry"
	"globuscompute/internal/shellfn"
)

func TestAgentActivityAndLoad(t *testing.T) {
	h := newHarness(t, false)
	before := h.agent.LastActivity()
	rc := h.results(t)
	h.submit(t, pythonTask(t, "identity", 1))
	res := nextResult(t, rc)
	if res.State != protocol.StateSuccess {
		t.Fatalf("result %+v", res)
	}
	if !h.agent.LastActivity().After(before) {
		t.Error("activity timestamp not advanced")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		l := h.agent.SnapshotLoad()
		if l.TasksReceived >= 1 && l.ResultsPublished >= 1 && l.TotalWorkers > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("load = %+v", h.agent.SnapshotLoad())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The agent quiesces to not-busy after the task drains.
	deadline = time.Now().Add(2 * time.Second)
	for h.agent.Busy() {
		if time.Now().After(deadline) {
			t.Fatal("agent stuck busy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMalformedTaskDeadLetters(t *testing.T) {
	h := newHarness(t, false)
	h.brk.Publish("tasks."+string(h.epID), []byte("not json"))
	deadline := time.Now().Add(2 * time.Second)
	dlq := "tasks." + string(h.epID) + broker.DeadLetterSuffix
	for {
		if d, err := h.brk.Depth(dlq); err == nil && d == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poison task never dead-lettered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h.agent.Metrics.Counter("dead_lettered").Value() != 1 {
		t.Error("dead-letter counter not incremented")
	}
	// The poison left the task queue for good (rejected, not redelivered
	// forever) and the pipeline is healthy: a subsequent task flows end to
	// end and the DLQ depth holds at one.
	results := h.results(t)
	task := pythonTask(t, "identity", "after-poison")
	h.submit(t, task)
	res := nextResult(t, results)
	if res.TaskID != task.ID || res.State != protocol.StateSuccess {
		t.Fatalf("post-poison result = %+v, want success for %s", res, task.ID)
	}
	if d, err := h.brk.Depth(dlq); err != nil || d != 1 {
		t.Errorf("dlq depth = %d (%v), want 1 — poison must not redeliver", d, err)
	}
	if d, err := h.brk.Depth("tasks." + string(h.epID)); err != nil || d != 0 {
		t.Errorf("task queue depth = %d (%v), want 0", d, err)
	}
}

func TestRunnerProxyResolutionAndResultProxying(t *testing.T) {
	// Unit-level runner test: proxied args resolve, large results proxy.
	store, err := proxystore.NewStore("unit", objectstore.New(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	preg := proxystore.NewRegistry()
	preg.Register(store)
	run := newRunner(RunnerConfig{
		Registry:    registry.Builtins(),
		Shell:       shellfn.Options{},
		Proxies:     preg,
		ProxyStore:  store,
		ProxyPolicy: proxystore.Policy{MinSize: 128},
	})

	big := strings.Repeat("z", 4096)
	proxy, err := store.Put(big)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(proxy.Reference())
	payload, _ := protocol.EncodePayload(protocol.PythonSpec{
		Entrypoint: "identity",
		Args:       []json.RawMessage{refJSON},
	})
	task := protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindPython, Payload: payload}
	res := run(t.Context(), task, engine.WorkerInfo{ID: "w", Node: "n"})
	if res.State != protocol.StateSuccess {
		t.Fatalf("result %+v", res)
	}
	// The output is itself a proxied reference (4 kB > 128 B policy).
	var ref proxystore.Reference
	if err := json.Unmarshal(res.Output, &ref); err != nil || ref.Key == "" {
		t.Fatalf("output not a reference: %.60s (%v)", res.Output, err)
	}
	resolved, err := preg.ResolveReference(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) == 0 {
		t.Fatal("empty resolved result")
	}
}

func TestRunnerProxyResolutionFailure(t *testing.T) {
	preg := proxystore.NewRegistry() // no stores registered
	run := newRunner(RunnerConfig{
		Registry: registry.Builtins(),
		Proxies:  preg,
	})
	refJSON, _ := json.Marshal(proxystore.Reference{Store: "ghost", Key: "k", Size: 1})
	payload, _ := protocol.EncodePayload(protocol.PythonSpec{
		Entrypoint: "identity",
		Args:       []json.RawMessage{refJSON},
	})
	task := protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindPython, Payload: payload}
	res := run(t.Context(), task, engine.WorkerInfo{})
	if res.State != protocol.StateFailed || !strings.Contains(res.Error, "resolve arg") {
		t.Errorf("result %+v", res)
	}
}

func TestRunnerUnsupportedKind(t *testing.T) {
	run := NewRunner(registry.Builtins(), shellfn.Options{}, nil)
	task := protocol.Task{ID: protocol.NewUUID(), Kind: "fortran", Payload: []byte("{}")}
	res := run(t.Context(), task, engine.WorkerInfo{})
	if res.State != protocol.StateFailed {
		t.Errorf("result %+v", res)
	}
}
