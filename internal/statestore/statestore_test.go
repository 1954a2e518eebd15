package statestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"globuscompute/internal/protocol"
)

func newTask(ep protocol.UUID) protocol.Task {
	return protocol.Task{ID: protocol.NewUUID(), FunctionID: protocol.NewUUID(), EndpointID: ep, Kind: protocol.KindPython}
}

func TestFunctionImmutable(t *testing.T) {
	s := New()
	id := protocol.NewUUID()
	rec := FunctionRecord{ID: id, Owner: "alice", Kind: protocol.KindPython, Definition: []byte("def")}
	if err := s.PutFunction(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFunction(rec); !errors.Is(err, ErrAlreadyExists) {
		t.Errorf("re-register = %v, want ErrAlreadyExists", err)
	}
	got, err := s.GetFunction(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner != "alice" || string(got.Definition) != "def" {
		t.Errorf("got %+v", got)
	}
	if s.CountFunctions() != 1 {
		t.Errorf("CountFunctions = %d", s.CountFunctions())
	}
}

func TestFunctionInvalidID(t *testing.T) {
	s := New()
	if err := s.PutFunction(FunctionRecord{ID: "nope"}); err == nil {
		t.Error("PutFunction with bad ID succeeded")
	}
}

func TestFunctionDefinitionCopied(t *testing.T) {
	s := New()
	id := protocol.NewUUID()
	def := []byte("orig")
	s.PutFunction(FunctionRecord{ID: id, Definition: def})
	copy(def, "XXXX")
	got, _ := s.GetFunction(id)
	if string(got.Definition) != "orig" {
		t.Error("definition aliased caller buffer")
	}
}

func TestEndpointLifecycle(t *testing.T) {
	s := New()
	id := protocol.NewUUID()
	if err := s.UpsertEndpoint(EndpointRecord{ID: id, Name: "hpc", Owner: "bob", Status: EndpointOffline}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetEndpointStatus(id, EndpointOnline); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetEndpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != EndpointOnline {
		t.Errorf("status = %s", got.Status)
	}
	if got.LastHeartbeat.IsZero() {
		t.Error("heartbeat not stamped")
	}
	if err := s.SetEndpointStatus(protocol.NewUUID(), EndpointOnline); !errors.Is(err, ErrNotFound) {
		t.Errorf("status of missing endpoint = %v", err)
	}
}

func TestEndpointRegisteredPreservedOnUpsert(t *testing.T) {
	s := New()
	base := time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC)
	s.SetClock(func() time.Time { return base })
	id := protocol.NewUUID()
	s.UpsertEndpoint(EndpointRecord{ID: id, Name: "v1"})
	s.SetClock(func() time.Time { return base.Add(time.Hour) })
	s.UpsertEndpoint(EndpointRecord{ID: id, Name: "v2"})
	got, _ := s.GetEndpoint(id)
	if !got.Registered.Equal(base) {
		t.Errorf("Registered = %v, want original %v", got.Registered, base)
	}
	if got.Name != "v2" {
		t.Errorf("Name = %s, want v2", got.Name)
	}
}

func TestListEndpointsFilters(t *testing.T) {
	s := New()
	mep := protocol.NewUUID()
	s.UpsertEndpoint(EndpointRecord{ID: mep, Owner: "admin", MultiUser: true, Status: EndpointOnline})
	for i := 0; i < 3; i++ {
		s.UpsertEndpoint(EndpointRecord{ID: protocol.NewUUID(), Owner: "user", Parent: mep, Status: EndpointOnline})
	}
	s.UpsertEndpoint(EndpointRecord{ID: protocol.NewUUID(), Owner: "user", Status: EndpointOffline})

	tr := true
	if got := s.ListEndpoints(EndpointFilter{MultiUser: &tr}); len(got) != 1 {
		t.Errorf("multi-user endpoints = %d, want 1", len(got))
	}
	if got := s.ListEndpoints(EndpointFilter{Parent: mep}); len(got) != 3 {
		t.Errorf("children = %d, want 3", len(got))
	}
	if got := s.ListEndpoints(EndpointFilter{Status: EndpointOffline}); len(got) != 1 {
		t.Errorf("offline = %d, want 1", len(got))
	}
	if got := s.ListEndpoints(EndpointFilter{Owner: "admin"}); len(got) != 1 {
		t.Errorf("admin-owned = %d, want 1", len(got))
	}
	if s.CountEndpoints() != 5 {
		t.Errorf("CountEndpoints = %d", s.CountEndpoints())
	}
}

func TestTaskHappyPath(t *testing.T) {
	s := New()
	ep := protocol.NewUUID()
	task := newTask(ep)
	if err := s.CreateTask(task); err != nil {
		t.Fatal(err)
	}
	for _, st := range []protocol.TaskState{protocol.StateWaiting, protocol.StateDelivered, protocol.StateRunning} {
		if err := s.TransitionTask(task.ID, st); err != nil {
			t.Fatalf("to %s: %v", st, err)
		}
	}
	if err := s.CompleteTask(protocol.Result{TaskID: task.ID, State: protocol.StateSuccess, Output: []byte("42")}); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.GetTask(task.ID)
	if rec.State != protocol.StateSuccess || string(rec.Result) != "42" {
		t.Errorf("record = %+v", rec)
	}
	if rec.Completed.IsZero() {
		t.Error("Completed not stamped")
	}
}

// TestResultOutrunsDeliveryAck pins one edge of the state machine: a result
// records while the task still reads waiting (waiting -> success is legal),
// and a Delivered ack arriving after it bounces off the terminal state. The
// service no longer visits waiting (it admits straight to Delivered), but
// logs written before it did replay through this edge, and so do direct
// store users that publish before acking Delivered.
func TestResultOutrunsDeliveryAck(t *testing.T) {
	s := New()
	task := newTask(protocol.NewUUID())
	if err := s.CreateTask(task); err != nil {
		t.Fatal(err)
	}
	if err := s.TransitionTask(task.ID, protocol.StateWaiting); err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteTask(protocol.Result{TaskID: task.ID, State: protocol.StateSuccess, Output: []byte("42")}); err != nil {
		t.Fatalf("result while waiting = %v, want recorded", err)
	}
	if err := s.TransitionTask(task.ID, protocol.StateDelivered); !errors.Is(err, ErrIllegalTransition) {
		t.Fatalf("late delivery ack = %v, want ErrIllegalTransition", err)
	}
	rec, _ := s.GetTask(task.ID)
	if rec.State != protocol.StateSuccess || string(rec.Result) != "42" {
		t.Fatalf("record = %+v", rec)
	}
}

func TestTaskIllegalTransitions(t *testing.T) {
	s := New()
	task := newTask(protocol.NewUUID())
	s.CreateTask(task)
	// received -> running skips delivery
	if err := s.TransitionTask(task.ID, protocol.StateRunning); !errors.Is(err, ErrIllegalTransition) {
		t.Errorf("received->running = %v", err)
	}
	s.TransitionTask(task.ID, protocol.StateCancelled)
	// cancelled is terminal: nothing may follow
	for _, st := range []protocol.TaskState{protocol.StateRunning, protocol.StateSuccess, protocol.StateFailed, protocol.StateWaiting} {
		if err := s.TransitionTask(task.ID, st); !errors.Is(err, ErrIllegalTransition) {
			t.Errorf("cancelled->%s = %v, want ErrIllegalTransition", st, err)
		}
	}
}

func TestCompleteTaskRejectsNonTerminal(t *testing.T) {
	s := New()
	task := newTask(protocol.NewUUID())
	s.CreateTask(task)
	if err := s.CompleteTask(protocol.Result{TaskID: task.ID, State: protocol.StateRunning}); err == nil {
		t.Error("CompleteTask with running state succeeded")
	}
}

func TestCompleteTaskFromDeliveredDirectly(t *testing.T) {
	// Fast tasks may report success before the service ever saw "running".
	s := New()
	task := newTask(protocol.NewUUID())
	s.CreateTask(task)
	s.TransitionTask(task.ID, protocol.StateDelivered)
	if err := s.CompleteTask(protocol.Result{TaskID: task.ID, State: protocol.StateSuccess}); err != nil {
		t.Errorf("delivered->success = %v", err)
	}
}

// TestObjectRefsFollowTheRows: the mark set names the spilled payload of
// every row, the spilled result of every finished one, and nothing a purge
// removed.
func TestObjectRefsFollowTheRows(t *testing.T) {
	s := New()
	ep := protocol.NewUUID()
	inline, queued, done := newTask(ep), newTask(ep), newTask(ep)
	queued.PayloadRef, done.PayloadRef = "payload-queued", "payload-done"
	for _, task := range []protocol.Task{inline, queued, done} {
		if err := s.CreateTask(task); err != nil {
			t.Fatal(err)
		}
	}
	s.TransitionTask(done.ID, protocol.StateDelivered)
	if err := s.CompleteTask(protocol.Result{TaskID: done.ID, State: protocol.StateSuccess, OutputRef: "result-done"}); err != nil {
		t.Fatal(err)
	}
	want := func(keys ...string) {
		t.Helper()
		refs := s.ObjectRefs()
		if len(refs) != len(keys) {
			t.Errorf("ObjectRefs = %v, want %v", refs, keys)
		}
		for _, key := range keys {
			if _, ok := refs[key]; !ok {
				t.Errorf("ObjectRefs = %v, missing %s", refs, key)
			}
		}
	}
	want("payload-queued", "payload-done", "result-done")
	if n := s.PurgeTasksBefore(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("purged %d tasks, want 1", n)
	}
	want("payload-queued")
}

// TestTaskTableKeepsNoPayload is the task table's heap guard: 2,000 admitted
// tasks with 8 KiB inline payloads (16 MB of payload) leave the live heap
// less than 4 MB larger, and each row keeps its PayloadRef but not its
// bytes.
func TestTaskTableKeepsNoPayload(t *testing.T) {
	s := New()
	ep := protocol.NewUUID()
	var ids []protocol.UUID
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for b := 0; b < 40; b++ {
		batch := make([]protocol.Task, 50)
		for i := range batch {
			batch[i] = newTask(ep)
			batch[i].Payload = bytes.Repeat([]byte{byte(i)}, 8<<10)
			batch[i].PayloadRef = "ref-" + string(batch[i].ID)
			ids = append(ids, batch[i].ID)
		}
		if err := s.AdmitTasks(batch, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew >= 4<<20 {
		t.Errorf("2,000 admitted tasks grew the live heap by %.1f MB, want < 4 MB", float64(grew)/(1<<20))
	}
	for _, id := range ids {
		rec, err := s.GetTask(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Task.Payload != nil || rec.Task.PayloadRef != "ref-"+string(id) {
			t.Fatalf("task %s kept %d payload bytes, ref %q", id, len(rec.Task.Payload), rec.Task.PayloadRef)
		}
	}
	runtime.KeepAlive(s)
}

// TestRestoreDropsStoredPayloads: a snapshot image that still carries inline
// payloads — what the store wrote before it stopped keeping them — restores
// without them, every other field intact.
func TestRestoreDropsStoredPayloads(t *testing.T) {
	ep := protocol.NewUUID()
	task := newTask(ep)
	task.Payload, task.PayloadRef = []byte(`"inline"`), "spilled-ref"
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	img, err := json.Marshal(snapshot{Tasks: []TaskRecord{{
		Task: task, State: protocol.StateSuccess, Result: []byte(`"inline"`),
		Created: at, Updated: at, Completed: at,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(img, []byte(`"payload":"`)) {
		t.Fatalf("image carries no payload: %s", img)
	}
	s := New()
	if err := s.Restore(img); err != nil {
		t.Fatal(err)
	}
	rec, err := s.GetTask(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Task.Payload != nil || rec.Task.PayloadRef != "spilled-ref" || rec.Task.EndpointID != ep ||
		rec.State != protocol.StateSuccess || string(rec.Result) != `"inline"` || !rec.Completed.Equal(at) {
		t.Errorf("restored %+v", rec)
	}
	if again, _ := s.Snapshot(); bytes.Contains(again, []byte(`"payload":"`)) {
		t.Errorf("snapshot after restore still carries a payload: %s", again)
	}
}

func TestDuplicateTask(t *testing.T) {
	s := New()
	task := newTask(protocol.NewUUID())
	s.CreateTask(task)
	if err := s.CreateTask(task); !errors.Is(err, ErrAlreadyExists) {
		t.Errorf("duplicate = %v", err)
	}
}

func TestListTasksByEndpointOrdered(t *testing.T) {
	s := New()
	ep := protocol.NewUUID()
	var ids []protocol.UUID
	for i := 0; i < 5; i++ {
		task := newTask(ep)
		ids = append(ids, task.ID)
		s.CreateTask(task)
	}
	s.CreateTask(newTask(protocol.NewUUID())) // different endpoint
	got := s.ListTasksByEndpoint(ep)
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Errorf("order mismatch at %d", i)
		}
	}
}

func TestCountTasksByState(t *testing.T) {
	s := New()
	for i := 0; i < 3; i++ {
		s.CreateTask(newTask(protocol.NewUUID()))
	}
	task := newTask(protocol.NewUUID())
	s.CreateTask(task)
	s.TransitionTask(task.ID, protocol.StateWaiting)
	counts := s.CountTasksByState()
	if counts[protocol.StateReceived] != 3 || counts[protocol.StateWaiting] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if s.CountTasks() != 4 {
		t.Errorf("CountTasks = %d", s.CountTasks())
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := New()
	fid := protocol.NewUUID()
	s.PutFunction(FunctionRecord{ID: fid, Owner: "o", Definition: []byte("d")})
	ep := protocol.NewUUID()
	s.UpsertEndpoint(EndpointRecord{ID: ep, Name: "e"})
	task := newTask(ep)
	s.CreateTask(task)
	s.TransitionTask(task.ID, protocol.StateWaiting)

	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.Restore(img); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.GetFunction(fid); err != nil {
		t.Errorf("function lost: %v", err)
	}
	if _, err := s2.GetEndpoint(ep); err != nil {
		t.Errorf("endpoint lost: %v", err)
	}
	rec, err := s2.GetTask(task.ID)
	if err != nil {
		t.Fatalf("task lost: %v", err)
	}
	if rec.State != protocol.StateWaiting {
		t.Errorf("state = %s", rec.State)
	}
	if got := s2.ListTasksByEndpoint(ep); len(got) != 1 {
		t.Errorf("index not rebuilt: %d", len(got))
	}
	// State machine still enforced after restore.
	if err := s2.TransitionTask(task.ID, protocol.StateRunning); !errors.Is(err, ErrIllegalTransition) {
		t.Errorf("restored store allowed illegal transition: %v", err)
	}
}

func TestRestoreBadData(t *testing.T) {
	s := New()
	if err := s.Restore([]byte("{")); err == nil {
		t.Error("Restore of garbage succeeded")
	}
}

func TestConcurrentTransitions(t *testing.T) {
	// Racing completers: exactly one terminal transition must win.
	s := New()
	task := newTask(protocol.NewUUID())
	s.CreateTask(task)
	s.TransitionTask(task.ID, protocol.StateDelivered)
	var wg sync.WaitGroup
	wins := make(chan protocol.TaskState, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		st := protocol.StateSuccess
		if i%2 == 1 {
			st = protocol.StateFailed
		}
		go func(st protocol.TaskState) {
			defer wg.Done()
			if err := s.CompleteTask(protocol.Result{TaskID: task.ID, State: st}); err == nil {
				wins <- st
			}
		}(st)
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Errorf("%d terminal transitions succeeded, want exactly 1", n)
	}
}

func TestPropertyExactlyOneTerminal(t *testing.T) {
	// Random walks through the transition map never escape a terminal
	// state and always can reach one.
	states := []protocol.TaskState{
		protocol.StateWaiting, protocol.StateDelivered, protocol.StateRunning,
		protocol.StateSuccess, protocol.StateFailed, protocol.StateCancelled,
	}
	f := func(moves []uint8) bool {
		s := New()
		task := newTask(protocol.NewUUID())
		s.CreateTask(task)
		terminal := 0
		for _, m := range moves {
			st := states[int(m)%len(states)]
			if err := s.TransitionTask(task.ID, st); err == nil && st.Terminal() {
				terminal++
			}
		}
		rec, _ := s.GetTask(task.ID)
		if terminal > 1 {
			return false
		}
		if terminal == 1 && !rec.State.Terminal() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
