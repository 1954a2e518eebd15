package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
)

// openStore opens a durable store with the background loop disabled so tests
// drive snapshots deterministically.
func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	d, err := OpenStore(StoreOptions{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return d
}

func seedTasks(t *testing.T, st *statestore.Store, ep protocol.UUID, n int) []protocol.UUID {
	t.Helper()
	if err := st.UpsertEndpoint(statestore.EndpointRecord{ID: ep, Name: "ep"}); err != nil {
		t.Fatalf("UpsertEndpoint: %v", err)
	}
	tasks := make([]protocol.Task, n)
	ids := make([]protocol.UUID, n)
	for i := range tasks {
		ids[i] = protocol.NewUUID()
		tasks[i] = protocol.Task{ID: ids[i], EndpointID: ep}
	}
	if err := st.CreateTasks(tasks); err != nil {
		t.Fatalf("CreateTasks: %v", err)
	}
	return ids
}

// TestStoreRecovery journals a realistic task lifecycle, "crashes" (no Close,
// so no final snapshot — recovery leans entirely on the WAL), reopens, and
// checks every record came back in its exact pre-crash state.
func TestStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	ep := protocol.NewUUID()
	ids := seedTasks(t, d.State, ep, 6)

	if err := d.State.TransitionTasks(ids, protocol.StateWaiting); err != nil {
		t.Fatalf("TransitionTasks: %v", err)
	}
	if err := d.State.TransitionTasks(ids[:4], protocol.StateDelivered); err != nil {
		t.Fatalf("TransitionTasks: %v", err)
	}
	errs := d.State.CompleteTasks([]protocol.Result{
		{TaskID: ids[0], State: protocol.StateSuccess, Output: []byte("ok-0")},
		{TaskID: ids[1], State: protocol.StateFailed, Error: "boom"},
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("CompleteTasks[%d]: %v", i, err)
		}
	}
	// Crash: no Close(), no snapshot. Synchronous appends are already
	// durable, so reopening the same directory is the recovery path.

	d2 := openStore(t, dir)
	defer d2.Close()
	want := map[protocol.UUID]protocol.TaskState{
		ids[0]: protocol.StateSuccess,
		ids[1]: protocol.StateFailed,
		ids[2]: protocol.StateDelivered,
		ids[3]: protocol.StateDelivered,
		ids[4]: protocol.StateWaiting,
		ids[5]: protocol.StateWaiting,
	}
	for id, state := range want {
		rec, err := d2.State.GetTask(id)
		if err != nil {
			t.Fatalf("GetTask(%s): %v", id, err)
		}
		if rec.State != state {
			t.Errorf("task %s recovered as %s, want %s", id, rec.State, state)
		}
	}
	rec, _ := d2.State.GetTask(ids[0])
	if string(rec.Result) != "ok-0" {
		t.Errorf("task %s result = %q, want %q", ids[0], rec.Result, "ok-0")
	}
	if _, err := d2.State.GetEndpoint(ep); err != nil {
		t.Errorf("endpoint not recovered: %v", err)
	}
	// The recovered store journals too: mutate, reopen again, verify.
	if err := d2.State.TransitionTask(ids[4], protocol.StateDelivered); err != nil {
		t.Fatalf("TransitionTask after recovery: %v", err)
	}
	d3 := openStore(t, dir)
	defer d3.Close()
	rec, err := d3.State.GetTask(ids[4])
	if err != nil || rec.State != protocol.StateDelivered {
		t.Fatalf("second recovery: task %s = %s, %v", ids[4], rec.State, err)
	}
}

// TestStoreSnapshotCompaction verifies snapshots advance the horizon, compact
// old segments, and that snapshot+tail recovery equals pure-WAL recovery.
func TestStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenStore(StoreOptions{Dir: dir, SnapshotEvery: -1, segmentBytes: 1024})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	ep := protocol.NewUUID()
	ids := seedTasks(t, d.State, ep, 40)
	if err := d.State.TransitionTasks(ids, protocol.StateWaiting); err != nil {
		t.Fatalf("TransitionTasks: %v", err)
	}
	for _, id := range ids {
		if err := d.State.TransitionTask(id, protocol.StateDelivered); err != nil {
			t.Fatalf("TransitionTask: %v", err)
		}
	}
	before := d.WAL().segments()
	if before < 2 {
		t.Fatalf("expected multiple segments before compaction, got %d", before)
	}
	if err := d.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if after := d.WAL().segments(); after >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d segments", before, after)
	}
	// Post-snapshot mutations land in the surviving tail.
	errs := d.State.CompleteTasks([]protocol.Result{{TaskID: ids[0], State: protocol.StateSuccess}})
	if errs[0] != nil {
		t.Fatalf("CompleteTasks: %v", errs[0])
	}

	d2 := openStore(t, dir)
	defer d2.Close()
	counts := d2.State.CountTasksByState()
	if counts[protocol.StateSuccess] != 1 || counts[protocol.StateDelivered] != 39 {
		t.Fatalf("recovered counts = %v, want 1 success / 39 delivered", counts)
	}
}

// TestStoreRecoveryIdempotent reopens a directory whose snapshot horizon lags
// the WAL tail (always true right after a snapshotless crash) several times
// in a row; replayed duplicates must be skipped, never doubled.
func TestStoreRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	ep := protocol.NewUUID()
	ids := seedTasks(t, d.State, ep, 3)
	if err := d.State.TransitionTasks(ids, protocol.StateWaiting); err != nil {
		t.Fatalf("TransitionTasks: %v", err)
	}
	if err := d.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	// Mutations after the snapshot: replay must apply them exactly once on
	// top of the restored image, every time we reopen.
	if err := d.State.TransitionTask(ids[0], protocol.StateDelivered); err != nil {
		t.Fatalf("TransitionTask: %v", err)
	}
	for round := 0; round < 3; round++ {
		d2 := openStore(t, dir)
		if n := d2.State.CountTasks(); n != 3 {
			t.Fatalf("round %d: %d tasks, want 3", round, n)
		}
		rec, err := d2.State.GetTask(ids[0])
		if err != nil || rec.State != protocol.StateDelivered {
			t.Fatalf("round %d: task state %s, %v", round, rec.State, err)
		}
		d2.WAL().Close() // release the handle without writing a fresh snapshot
	}
}

// TestStoredTasksKeepNoPayload: the admit record journals each task's inline
// payload, but the task table keeps only its PayloadRef — live, after a
// WAL-only reopen, and after a snapshot and reopen — and the snapshot
// carries no payload bytes.
func TestStoredTasksKeepNoPayload(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	ep := protocol.NewUUID()
	tasks := []protocol.Task{
		{ID: protocol.NewUUID(), EndpointID: ep, Payload: []byte(`"inline-0"`)},
		{ID: protocol.NewUUID(), EndpointID: ep, Payload: []byte(`"inline-1"`)},
		{ID: protocol.NewUUID(), EndpointID: ep, PayloadRef: "spilled"},
	}
	if err := d.State.AdmitTasks(tasks, nil); err != nil {
		t.Fatal(err)
	}
	check := func(life string, st *statestore.Store) {
		t.Helper()
		for _, task := range tasks {
			rec, err := st.GetTask(task.ID)
			if err != nil {
				t.Fatalf("%s: %v", life, err)
			}
			if rec.Task.Payload != nil || rec.Task.PayloadRef != task.PayloadRef || rec.State != protocol.StateDelivered {
				t.Errorf("%s: task %s = payload %q, ref %q, state %s", life, task.ID, rec.Task.Payload, rec.Task.PayloadRef, rec.State)
			}
		}
	}
	check("live", d.State)
	// Crash: the WAL holds the payloads; replay keeps them off the table.
	d2 := openStore(t, dir)
	check("WAL-only reopen", d2.State)
	if err := d2.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	d2.WAL().Close()
	img, err := os.ReadFile(filepath.Join(dir, storeSnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(img, []byte("inline-")) || bytes.Contains(img, []byte(`"payload":"`)) {
		t.Errorf("snapshot carries payload bytes: %s", img)
	}
	d3 := openStore(t, dir)
	defer d3.Close()
	check("snapshot reopen", d3.State)
}

func BenchmarkJournaledCreateTasks(b *testing.B) {
	d, err := OpenStore(StoreOptions{Dir: b.TempDir(), SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ep := protocol.NewUUID()
	if err := d.State.UpsertEndpoint(statestore.EndpointRecord{ID: ep, Name: "ep"}); err != nil {
		b.Fatal(err)
	}
	const batch = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks := make([]protocol.Task, batch)
		for j := range tasks {
			tasks[j] = protocol.Task{ID: protocol.NewUUID(), EndpointID: ep}
		}
		if err := d.State.CreateTasks(tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStoreReplaysJSONTaskRecords opens a log whose task records are all
// JSON — what every commit before the binary encoding wrote, the four-step
// submit sequence and the single-item records the store has since stopped
// writing included — and then keeps journaling onto it, so one log holds
// both encodings.
func TestStoreReplaysJSONTaskRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: filepath.Join(dir, storeWALDir), noSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ep, at := protocol.NewUUID(), time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tasks := []protocol.Task{{ID: protocol.NewUUID(), EndpointID: ep}, {ID: protocol.NewUUID(), EndpointID: ep}}
	ids := []protocol.UUID{tasks[0].ID, tasks[1].ID}
	lone := []protocol.Task{{ID: protocol.NewUUID(), EndpointID: ep}, {ID: protocol.NewUUID(), EndpointID: ep}}
	for _, m := range []statestore.Mutation{
		{Op: statestore.OpCreateTasks, At: at, Tasks: tasks},
		{Op: statestore.OpTransitionTasks, At: at, TaskIDs: ids, State: protocol.StateWaiting},
		{Op: statestore.OpTransitionTasks, At: at, TaskIDs: ids, State: protocol.StateDelivered},
		{Op: statestore.OpCompleteTasks, At: at.Add(time.Second), Results: []protocol.Result{{TaskID: ids[0], State: protocol.StateSuccess, Output: []byte("42")}}},
		{Op: statestore.OpCreateTask, At: at, Task: &lone[0]},
		{Op: statestore.OpCreateTask, At: at, Task: &lone[1]},
		{Op: statestore.OpTransitionTask, At: at, TaskIDs: []protocol.UUID{lone[0].ID}, State: protocol.StateCancelled},
		{Op: statestore.OpCompleteTask, At: at.Add(time.Second), Result: &protocol.Result{TaskID: lone[1].ID, State: protocol.StateFailed, Error: "lone"}},
	} {
		payload, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	d := openStore(t, dir)
	if rec, err := d.State.GetTask(ids[0]); err != nil || rec.State != protocol.StateSuccess || string(rec.Result) != "42" || !rec.Created.Equal(at) {
		t.Fatalf("task 0 = %+v, %v", rec, err)
	}
	if rec, err := d.State.GetTask(lone[0].ID); err != nil || rec.State != protocol.StateCancelled || !rec.Completed.Equal(at) {
		t.Fatalf("lone task 0 = %+v, %v", rec, err)
	}
	if rec, err := d.State.GetTask(lone[1].ID); err != nil || rec.State != protocol.StateFailed || rec.Error != "lone" {
		t.Fatalf("lone task 1 = %+v, %v", rec, err)
	}
	if errs := d.State.CompleteTasks([]protocol.Result{{TaskID: ids[1], State: protocol.StateFailed, Error: "boom"}}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	// Crash; the log now ends in a binary record.
	d2 := openStore(t, dir)
	defer d2.Close()
	if rec, err := d2.State.GetTask(ids[1]); err != nil || rec.State != protocol.StateFailed || rec.Error != "boom" {
		t.Fatalf("task 1 = %+v, %v", rec, err)
	}
}
