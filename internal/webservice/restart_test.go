package webservice

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"globuscompute/internal/protocol"
)

// TestCloudRestartRecovery exercises the durability claim end to end: tasks
// buffered for an offline endpoint survive a hard web-service crash and
// execute once the endpoint comes online against the recovered deployment.
// Unlike an in-memory Snapshot/Restore round trip, this goes through the
// real recovery path: both the statestore and the broker journal to WALs in
// a shared data dir, the "crash" skips the shutdown snapshot entirely, and
// the second life rebuilds its state purely by replaying those WALs — both
// lives through OpenStack, the startup sequence cmd/gc-webservice runs with
// -data-dir.
func TestCloudRestartRecovery(t *testing.T) {
	dir := t.TempDir()

	// --- first life of the cloud, journaling every mutation ---
	open := func() *Stack {
		t.Helper()
		st, err := OpenStack(StackConfig{DataDir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	f := stackFixture(t, st)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "offline-hpc", Owner: "o"})
	// No agent attached: tasks buffer in the broker.
	ids, err := f.svc.Submit(f.token, []SubmitRequest{
		{EndpointID: ep, FunctionID: fn, Payload: []byte(`"one"`)},
		{EndpointID: ep, FunctionID: fn, Payload: []byte(`"two"`)},
		{EndpointID: ep, FunctionID: fn, Payload: []byte(`"three"`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := f.brk.Depth(TaskQueue(ep)); d != 3 {
		t.Fatalf("buffered depth = %d", d)
	}

	// Crash the cloud: stop the service and broker but never call Close on
	// the durable layer, so no final snapshot is written and recovery must
	// come from the logs. The WAL file handles are closed only so the dead
	// generation's flusher goroutines stop.
	f.svc.Close()
	f.brk.Close()
	_ = st.Durable.WAL().Close()
	_ = st.DurableBroker.WAL().Close()

	// --- second life: replay the WALs ---
	// No re-registration: the endpoint record was recovered from the WAL, so
	// the stack re-declares its queues and re-attaches its result processor.
	st2 := open()
	t.Cleanup(func() { st2.Close(context.Background()) })
	svc2 := st2.Service

	// Tasks are still tracked and still buffered.
	for _, id := range ids {
		st, err := svc2.GetTask(id)
		if err != nil {
			t.Fatalf("task %s lost across restart: %v", id, err)
		}
		if st.State.Terminal() {
			t.Fatalf("task %s already terminal: %s", id, st.State)
		}
	}
	if d, _ := st2.Broker.Depth(TaskQueue(ep)); d != 3 {
		t.Fatalf("restored depth = %d", d)
	}

	// The endpoint comes online and drains the backlog.
	f2 := stackFixture(t, st2)
	f2.fakeAgent(t, ep)
	for _, id := range ids {
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, _ := svc2.GetTask(id)
			if st.State == protocol.StateSuccess {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("task %s never completed after restart (state %s)", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestStreamedResultsSurviveRestart: a result streamed to an executor's group
// queue but not yet consumed is journaled like any other message, so an
// executor that reconnects after a cloud crash still receives it.
func TestStreamedResultsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *Stack {
		t.Helper()
		st, err := OpenStack(StackConfig{DataDir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	f := stackFixture(t, st)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	f.fakeAgent(t, ep)
	group, ids := submitGrouped(t, f, ep, fn, 5)
	for _, id := range ids {
		waitTask(t, f.svc, id, 5*time.Second)
	}
	// Crash as TestCloudRestartRecovery does: no final snapshot.
	f.svc.Close()
	f.brk.Close()
	_ = st.Durable.WAL().Close()
	_ = st.DurableBroker.WAL().Close()

	st2 := open()
	t.Cleanup(func() { st2.Close(context.Background()) })
	stream, err := st2.Broker.Consume(GroupResultQueue(group), 8)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[protocol.UUID]bool)
	for len(got) < len(ids) {
		select {
		case m := <-stream.Messages():
			var res protocol.Result
			if err := json.Unmarshal(m.Body, &res); err != nil || res.State != protocol.StateSuccess {
				t.Fatalf("redelivered %s: %v", m.Body, err)
			}
			got[res.TaskID] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d streamed results redelivered after the restart", len(got), len(ids))
		}
	}
}
