package webservice

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
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

// storedPayloadDir is a -data-dir written by the service while its task
// table still kept inline payloads, with a 64-byte spill threshold: its
// snapshot and its state log both carry them. Three tasks finished before
// the snapshot, three were queued in it, and three were queued in the log
// tail after it, the first of those then cancelled. want.json is what that
// service reported for every task before it was killed, and what each one
// was submitted with.
const storedPayloadDir = "testdata/stored-payloads"

type storedPayloadWant struct {
	Endpoint protocol.UUID `json:"endpoint"`
	Tasks    []struct {
		Status     TaskStatus `json:"status"`
		Payload    []byte     `json:"payload"`
		PayloadRef string     `json:"payload_ref"`
	} `json:"tasks"`
}

// copyTree copies the directory src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStoredPayloadDataDirOpens opens a data dir whose snapshot and log
// still carry inline payloads. Every task comes back with its status and
// result, its PayloadRef and no payload; the queued tasks then run from
// their queued messages alone and echo what was submitted; and a snapshot
// taken now carries no payload.
func TestStoredPayloadDataDirOpens(t *testing.T) {
	var want storedPayloadWant
	raw, err := os.ReadFile(filepath.Join(storedPayloadDir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	hasPayload := func(path string) bool {
		t.Helper()
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Contains(img, []byte(`"payload":"`))
	}
	if !hasPayload(filepath.Join(storedPayloadDir, "state", "state.snap")) {
		t.Fatal("the fixture's snapshot carries no payload: it tests nothing")
	}
	dir := t.TempDir()
	copyTree(t, storedPayloadDir, dir)
	open := func() *Stack {
		t.Helper()
		st, err := OpenStack(StackConfig{DataDir: dir, SnapshotEvery: -1, Service: Config{InlineThreshold: 64}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := open()
	check := func(life string, st *Stack) {
		t.Helper()
		for _, w := range want.Tasks {
			got, err := st.Service.GetTask(w.Status.TaskID)
			if err != nil {
				t.Fatalf("%s: %v", life, err)
			}
			if !reflect.DeepEqual(got, w.Status) {
				t.Errorf("%s: status %+v, want %+v", life, got, w.Status)
			}
			rec, _ := st.Store.GetTask(w.Status.TaskID)
			if rec.Task.Payload != nil || rec.Task.PayloadRef != w.PayloadRef {
				t.Errorf("%s: task %s kept payload %q, ref %q (want ref %q)", life, w.Status.TaskID, rec.Task.Payload, rec.Task.PayloadRef, w.PayloadRef)
			}
		}
	}
	check("parent data dir", st)

	f := stackFixture(t, st)
	f.fakeAgent(t, want.Endpoint)
	ran := 0
	for _, w := range want.Tasks {
		if w.Status.State.Terminal() {
			continue
		}
		got := waitTask(t, st.Service, w.Status.TaskID, 10*time.Second)
		result := got.Result
		if got.ResultRef != "" {
			result, _ = st.Objects.Get(got.ResultRef)
		}
		if got.State != protocol.StateSuccess || !bytes.Equal(result, w.Payload) {
			t.Errorf("queued task %s: %s with %q, want success echoing %q", w.Status.TaskID, got.State, result, w.Payload)
		}
		ran++
	}
	if ran != 5 {
		t.Errorf("%d queued tasks ran, want 5", ran)
	}
	if err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if hasPayload(filepath.Join(dir, "state", "state.snap")) {
		t.Error("a snapshot written now still carries a payload")
	}
	st2 := open()
	defer st2.Close(context.Background())
	for _, w := range want.Tasks {
		rec, err := st2.Store.GetTask(w.Status.TaskID)
		if err != nil || rec.Task.Payload != nil || rec.Task.PayloadRef != w.PayloadRef || !rec.State.Terminal() {
			t.Errorf("after the new snapshot: task %s = %+v, %v", w.Status.TaskID, rec, err)
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
			res, err := protocol.DecodeResult(m.Body)
			if err != nil || res.State != protocol.StateSuccess {
				t.Fatalf("redelivered %s: %v", m.Body, err)
			}
			got[res.TaskID] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d streamed results redelivered after the restart", len(got), len(ids))
		}
	}
}
