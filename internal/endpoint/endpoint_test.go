package endpoint

import (
	"encoding/json"

	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/engine"
	"globuscompute/internal/metrics"
	"globuscompute/internal/mpiengine"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/registry"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/shellfn"
	"globuscompute/internal/statestore"
)

type harness struct {
	brk   *broker.Broker
	agent *Agent
	epID  protocol.UUID
	objs  *objectstore.Store
}

func newHarness(t *testing.T, withMPI bool) *harness {
	t.Helper()
	brk := broker.New()
	epID := protocol.NewUUID()
	brk.Declare("tasks." + string(epID))
	brk.Declare("results." + string(epID))

	objs := objectstore.New()
	reg := registry.Builtins()
	eng, err := engine.New(engine.Config{
		Provider:   provider.NewLocal(2),
		Run:        NewRunner(reg, shellfn.Options{SandboxRoot: t.TempDir()}, objs),
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		WorkersPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		EndpointID: epID,
		Conn:       broker.LocalConn(brk),
		Engine:     eng,
		Objects:    objs,
	}
	if withMPI {
		sched := scheduler.SimpleCluster(2)
		t.Cleanup(sched.Close)
		prov, _ := provider.NewBatch(provider.BatchConfig{Scheduler: sched, NodesPerBlock: 2})
		mpi, err := mpiengine.New(mpiengine.Config{Provider: prov})
		if err != nil {
			t.Fatal(err)
		}
		cfg.MPI = mpi
	}
	agent, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		agent.Stop()
		brk.Close()
	})
	return &harness{brk: brk, agent: agent, epID: epID, objs: objs}
}

// submit publishes a task to the agent's queue.
func (h *harness) submit(t *testing.T, task protocol.Task) {
	t.Helper()
	task.EndpointID = h.epID
	body, err := json.Marshal(task)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.brk.Publish("tasks."+string(h.epID), body); err != nil {
		t.Fatal(err)
	}
}

// results consumes the endpoint result queue.
func (h *harness) results(t *testing.T) *broker.Consumer {
	t.Helper()
	c, err := h.brk.Consume("results."+string(h.epID), 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func nextResult(t *testing.T, c *broker.Consumer) protocol.Result {
	t.Helper()
	select {
	case m := <-c.Messages():
		var res protocol.Result
		if err := json.Unmarshal(m.Body, &res); err != nil {
			t.Fatal(err)
		}
		c.Ack(m.Tag)
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("no result")
		return protocol.Result{}
	}
}

func pythonTask(t *testing.T, entrypoint string, args ...any) protocol.Task {
	t.Helper()
	rawArgs := make([]json.RawMessage, len(args))
	for i, a := range args {
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		rawArgs[i] = b
	}
	payload, err := protocol.EncodePayload(protocol.PythonSpec{Entrypoint: entrypoint, Args: rawArgs})
	if err != nil {
		t.Fatal(err)
	}
	return protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindPython, Payload: payload}
}

func TestPythonTaskExecution(t *testing.T) {
	h := newHarness(t, false)
	rc := h.results(t)
	h.submit(t, pythonTask(t, "add", 1, 2, 3))
	res := nextResult(t, rc)
	if res.State != protocol.StateSuccess {
		t.Fatalf("result: %+v", res)
	}
	if string(res.Output) != "6" {
		t.Errorf("output = %s", res.Output)
	}
	if res.EndpointID != h.epID {
		t.Errorf("endpoint = %s", res.EndpointID)
	}
}

func TestPythonTaskError(t *testing.T) {
	h := newHarness(t, false)
	rc := h.results(t)
	h.submit(t, pythonTask(t, "fail", "kaboom"))
	res := nextResult(t, rc)
	if res.State != protocol.StateFailed || res.Error != "kaboom" {
		t.Errorf("result: %+v", res)
	}
}

func TestUnknownEntrypointFails(t *testing.T) {
	h := newHarness(t, false)
	rc := h.results(t)
	h.submit(t, pythonTask(t, "nonexistent"))
	res := nextResult(t, rc)
	if res.State != protocol.StateFailed {
		t.Errorf("result: %+v", res)
	}
}

func TestShellTaskExecution(t *testing.T) {
	h := newHarness(t, false)
	rc := h.results(t)
	payload, _ := protocol.EncodePayload(protocol.ShellSpec{Command: "echo from-shell"})
	h.submit(t, protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindShell, Payload: payload})
	res := nextResult(t, rc)
	if res.State != protocol.StateSuccess {
		t.Fatalf("result: %+v", res)
	}
	var sr protocol.ShellResult
	if err := protocol.DecodePayload(res.Output, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Stdout != "from-shell" || sr.ReturnCode != 0 {
		t.Errorf("shell result: %+v", sr)
	}
}

func TestShellWalltimeThroughAgent(t *testing.T) {
	h := newHarness(t, false)
	rc := h.results(t)
	payload, _ := protocol.EncodePayload(protocol.ShellSpec{Command: "sleep 2", WalltimeSec: 0.1})
	h.submit(t, protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindShell, Payload: payload})
	res := nextResult(t, rc)
	var sr protocol.ShellResult
	if err := protocol.DecodePayload(res.Output, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ReturnCode != 124 {
		t.Errorf("rc = %d, want 124", sr.ReturnCode)
	}
}

func TestMPITaskThroughAgent(t *testing.T) {
	h := newHarness(t, true)
	rc := h.results(t)
	payload, _ := protocol.EncodePayload(protocol.ShellSpec{Command: "echo $GC_NODE"})
	h.submit(t, protocol.Task{
		ID: protocol.NewUUID(), Kind: protocol.KindMPI, Payload: payload,
		Resources: protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 1},
	})
	res := nextResult(t, rc)
	if res.State != protocol.StateSuccess {
		t.Fatalf("result: %+v", res)
	}
	var sr protocol.ShellResult
	protocol.DecodePayload(res.Output, &sr)
	if len(sr.Stdout) == 0 {
		t.Error("empty MPI stdout")
	}
}

func TestMPITaskWithoutMPIEngineFails(t *testing.T) {
	h := newHarness(t, false)
	rc := h.results(t)
	payload, _ := protocol.EncodePayload(protocol.ShellSpec{Command: "true"})
	h.submit(t, protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindMPI, Payload: payload})
	res := nextResult(t, rc)
	if res.State != protocol.StateFailed {
		t.Errorf("result: %+v", res)
	}
}

func TestPayloadRefResolution(t *testing.T) {
	h := newHarness(t, false)
	rc := h.results(t)
	task := pythonTask(t, "identity", "big-payload-value")
	key, err := h.objs.PutContent(task.Payload)
	if err != nil {
		t.Fatal(err)
	}
	task.Payload = nil
	task.PayloadRef = key
	h.submit(t, task)
	res := nextResult(t, rc)
	if res.State != protocol.StateSuccess {
		t.Fatalf("result: %+v", res)
	}
	if string(res.Output) != `"big-payload-value"` {
		t.Errorf("output = %s", res.Output)
	}
}

func TestMalformedTaskDropped(t *testing.T) {
	h := newHarness(t, false)
	rc := h.results(t)
	h.brk.Publish("tasks."+string(h.epID), []byte("not json"))
	// A good task after the poison one still executes.
	h.submit(t, pythonTask(t, "identity", "after-poison"))
	res := nextResult(t, rc)
	if res.State != protocol.StateSuccess || string(res.Output) != `"after-poison"` {
		t.Errorf("result: %+v", res)
	}
}

func TestManyTasksThroughAgent(t *testing.T) {
	h := newHarness(t, false)
	rc := h.results(t)
	const n = 50
	for i := 0; i < n; i++ {
		h.submit(t, pythonTask(t, "identity", i))
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		res := nextResult(t, rc)
		if res.State != protocol.StateSuccess {
			t.Fatalf("result %d: %+v", i, res)
		}
		seen[string(res.Output)] = true
	}
	if len(seen) != n {
		t.Errorf("distinct outputs = %d, want %d", len(seen), n)
	}
}

func TestHeartbeats(t *testing.T) {
	brk := broker.New()
	defer brk.Close()
	epID := protocol.NewUUID()
	brk.Declare("tasks." + string(epID))
	brk.Declare("results." + string(epID))
	var online, offline atomic.Int64
	eng, _ := engine.New(engine.Config{
		Provider:   provider.NewLocal(1),
		Run:        NewRunner(registry.Builtins(), shellfn.Options{}, nil),
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
	})
	agent, err := New(Config{
		EndpointID: epID,
		Conn:       broker.LocalConn(brk),
		Engine:     eng,
		Heartbeat: func(id protocol.UUID, up bool, load *statestore.EndpointLoad, _ *metrics.Snapshot) error {
			if id != epID || load == nil || load.EgressBacklog == nil {
				t.Errorf("heartbeat for %s carries load %+v", id, load)
			}
			if up {
				online.Add(1)
			} else {
				offline.Add(1)
			}
			return nil
		},
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	agent.Stop()
	if online.Load() < 2 {
		t.Errorf("online heartbeats = %d, want >= 2", online.Load())
	}
	if offline.Load() != 1 {
		t.Errorf("offline heartbeats = %d, want 1", offline.Load())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	brk := broker.New()
	defer brk.Close()
	if _, err := New(Config{EndpointID: protocol.NewUUID(), Conn: broker.LocalConn(brk)}); err == nil {
		t.Error("missing engine accepted")
	}
	if _, err := New(Config{EndpointID: "bad", Conn: broker.LocalConn(brk)}); err == nil {
		t.Error("bad endpoint ID accepted")
	}
}
