package statestore

import (
	"errors"
	"fmt"
	"testing"

	"globuscompute/internal/protocol"
)

func makeTasks(n int, ep protocol.UUID) []protocol.Task {
	tasks := make([]protocol.Task, n)
	for i := range tasks {
		tasks[i] = protocol.Task{ID: protocol.NewUUID(), EndpointID: ep, Kind: protocol.KindPython}
	}
	return tasks
}

func TestCreateTasksBatchLifecycle(t *testing.T) {
	s := New()
	ep := protocol.NewUUID()
	tasks := makeTasks(50, ep)
	if err := s.CreateTasks(tasks); err != nil {
		t.Fatal(err)
	}
	if got := s.CountTasks(); got != 50 {
		t.Fatalf("CountTasks = %d, want 50", got)
	}
	// Creation order must be preserved in the per-endpoint index.
	ids := s.ListTasksByEndpoint(ep)
	if len(ids) != 50 {
		t.Fatalf("ListTasksByEndpoint = %d ids, want 50", len(ids))
	}
	for i, id := range ids {
		if id != tasks[i].ID {
			t.Fatalf("index[%d] = %s, want %s (creation order)", i, id, tasks[i].ID)
		}
	}

	allIDs := make([]protocol.UUID, len(tasks))
	for i, task := range tasks {
		allIDs[i] = task.ID
	}
	if err := s.TransitionTasks(allIDs, protocol.StateWaiting); err != nil {
		t.Fatal(err)
	}
	if err := s.TransitionTasks(allIDs, protocol.StateDelivered); err != nil {
		t.Fatal(err)
	}
	results := make([]protocol.Result, len(tasks))
	for i, task := range tasks {
		results[i] = protocol.Result{TaskID: task.ID, State: protocol.StateSuccess, Output: []byte(fmt.Sprintf("out-%d", i))}
	}
	for i, err := range s.CompleteTasks(results) {
		if err != nil {
			t.Fatalf("CompleteTasks[%d]: %v", i, err)
		}
	}
	recs := s.GetTaskRecords(allIDs)
	if len(recs) != 50 {
		t.Fatalf("GetTaskRecords = %d records, want 50", len(recs))
	}
	for i, task := range tasks {
		rec, ok := recs[task.ID]
		if !ok {
			t.Fatalf("task %s missing from batch read", task.ID)
		}
		if rec.State != protocol.StateSuccess {
			t.Fatalf("task %s state = %s", task.ID, rec.State)
		}
		if string(rec.Result) != fmt.Sprintf("out-%d", i) {
			t.Fatalf("task %s result = %q", task.ID, rec.Result)
		}
	}
}

func TestCreateTasksDuplicateReported(t *testing.T) {
	s := New()
	ep := protocol.NewUUID()
	tasks := makeTasks(3, ep)
	if err := s.CreateTask(tasks[1]); err != nil {
		t.Fatal(err)
	}
	err := s.CreateTasks(tasks)
	if !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("CreateTasks with duplicate = %v, want ErrAlreadyExists", err)
	}
	// The non-colliding tasks were still created.
	if got := s.CountTasks(); got != 3 {
		t.Fatalf("CountTasks = %d, want 3", got)
	}
	// The duplicate must not be double-indexed.
	if got := len(s.ListTasksByEndpoint(ep)); got != 3 {
		t.Fatalf("index size = %d, want 3", got)
	}
}

func TestTransitionTasksPartialError(t *testing.T) {
	s := New()
	ep := protocol.NewUUID()
	tasks := makeTasks(2, ep)
	if err := s.CreateTasks(tasks); err != nil {
		t.Fatal(err)
	}
	ids := []protocol.UUID{tasks[0].ID, protocol.NewUUID(), tasks[1].ID}
	err := s.TransitionTasks(ids, protocol.StateWaiting)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("TransitionTasks = %v, want ErrNotFound for the unknown ID", err)
	}
	for _, task := range tasks {
		rec, err := s.GetTask(task.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State != protocol.StateWaiting {
			t.Fatalf("task %s state = %s, want waiting despite the batch error", task.ID, rec.State)
		}
	}
}

func TestCompleteTasksPerResultErrors(t *testing.T) {
	s := New()
	ep := protocol.NewUUID()
	tasks := makeTasks(2, ep)
	if err := s.CreateTasks(tasks); err != nil {
		t.Fatal(err)
	}
	ids := []protocol.UUID{tasks[0].ID, tasks[1].ID}
	if err := s.TransitionTasks(ids, protocol.StateWaiting); err != nil {
		t.Fatal(err)
	}
	if err := s.TransitionTasks(ids, protocol.StateDelivered); err != nil {
		t.Fatal(err)
	}
	errs := s.CompleteTasks([]protocol.Result{
		{TaskID: tasks[0].ID, State: protocol.StateSuccess},
		{TaskID: protocol.NewUUID(), State: protocol.StateSuccess},
		{TaskID: tasks[1].ID, State: protocol.StateRunning}, // non-terminal
	})
	if errs[0] != nil {
		t.Fatalf("errs[0] = %v", errs[0])
	}
	if !errors.Is(errs[1], ErrNotFound) {
		t.Fatalf("errs[1] = %v, want ErrNotFound", errs[1])
	}
	if errs[2] == nil {
		t.Fatal("errs[2] = nil, want non-terminal-state error")
	}
}

func TestGetTaskRecordsMissingOmitted(t *testing.T) {
	s := New()
	task := protocol.Task{ID: protocol.NewUUID(), EndpointID: protocol.NewUUID(), Kind: protocol.KindPython}
	if err := s.CreateTask(task); err != nil {
		t.Fatal(err)
	}
	missing := protocol.NewUUID()
	recs := s.GetTaskRecords([]protocol.UUID{task.ID, missing})
	if len(recs) != 1 {
		t.Fatalf("GetTaskRecords = %d records, want 1", len(recs))
	}
	if _, ok := recs[missing]; ok {
		t.Fatal("missing ID present in batch read")
	}
}

// TestAdmitTasksLandsDelivered covers the submit path's single step: the
// batch is created directly in delivered (results record from there), with
// CreateTasks's handling of duplicate IDs.
func TestAdmitTasksLandsDelivered(t *testing.T) {
	s := New()
	ep := protocol.NewUUID()
	tasks := makeTasks(20, ep)
	if err := s.AdmitTasks(tasks, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.CountTasksByState()[protocol.StateDelivered]; got != 20 {
		t.Fatalf("delivered = %d, want 20", got)
	}
	if ids := s.ListTasksByEndpoint(ep); len(ids) != 20 || ids[0] != tasks[0].ID {
		t.Fatalf("endpoint index = %d ids, first %v", len(ids), ids[:1])
	}
	if err := s.CompleteTask(protocol.Result{TaskID: tasks[0].ID, State: protocol.StateSuccess}); err != nil {
		t.Fatalf("complete from delivered: %v", err)
	}
	more := append(makeTasks(1, ep), tasks[1])
	if err := s.AdmitTasks(more, nil); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("re-admit = %v, want ErrAlreadyExists", err)
	}
	if rec, err := s.GetTask(more[0].ID); err != nil || rec.State != protocol.StateDelivered {
		t.Fatalf("task beside the duplicate = %+v, %v", rec.State, err)
	}
}
