package webservice

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/durable"
	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
)

// hookJournal is a statestore.Journal that asks fn whether to accept each
// mutation: a test fails mutations the way a WAL does once an fsync has
// failed or the log has closed, or just watches them go by.
type hookJournal func(statestore.Mutation) error

func (fn hookJournal) LogMutation(m statestore.Mutation) (func(), error) {
	if err := fn(m); err != nil {
		return nil, err
	}
	return func() {}, nil
}

// hookBrokerJournal is a broker.Journal reporting publishes and acks.
type hookBrokerJournal struct{ event func(op, queue string) }

func (hookBrokerJournal) LogDeclare(string) {}
func (hookBrokerJournal) LogDelete(string)  {}
func (h hookBrokerJournal) LogPublish(queue string, _ []uint64, _ [][]byte) (func(), error) {
	h.event("pub", queue)
	return func() {}, nil
}
func (h hookBrokerJournal) LogAck(queue string, _ []uint64) { h.event("ack", queue) }

// resultBodies marshals a success result per task.
func resultBodies(t *testing.T, ep protocol.UUID, ids []protocol.UUID) [][]byte {
	t.Helper()
	bodies := make([][]byte, len(ids))
	for i, id := range ids {
		body, err := json.Marshal(protocol.Result{TaskID: id, State: protocol.StateSuccess, Output: []byte(`1`), EndpointID: ep})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// submitGrouped submits n tasks in one batch under a fresh group whose queue
// is declared, as an executor would.
func submitGrouped(t testing.TB, f *fixture, ep, fn protocol.UUID, n int) (protocol.UUID, []protocol.UUID) {
	t.Helper()
	group := protocol.NewUUID()
	if err := f.brk.Declare(GroupResultQueue(group)); err != nil {
		t.Fatal(err)
	}
	reqs := make([]SubmitRequest, n)
	for i := range reqs {
		reqs[i] = SubmitRequest{EndpointID: ep, FunctionID: fn, Payload: []byte(`{}`), GroupID: group}
	}
	ids, err := f.svc.Submit(f.token, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return group, ids
}

// TestJournalFailureLeavesResultsUnacked: when the journal cannot record a
// result batch, the results must stay on the result queue — not be acked
// away, which would strand their tasks non-terminal for good — and must not
// be streamed; a later healthy processor completes them.
func TestJournalFailureLeavesResultsUnacked(t *testing.T) {
	f := newFixture(t)
	var down atomic.Bool
	f.store.SetJournal(hookJournal(func(statestore.Mutation) error {
		if down.Load() {
			return errors.New("journal down")
		}
		return nil
	}))
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	group, ids := submitGrouped(t, f, ep, fn, 3)
	stream, err := f.brk.Consume(GroupResultQueue(group), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	down.Store(true)
	// Three results the journal will refuse, and one malformed message,
	// which is settled (dropped) whatever the journal does.
	if err := f.brk.PublishBatch(ResultQueue(ep), append(resultBodies(t, ep, ids), []byte("not json")), nil); err != nil {
		t.Fatal(err)
	}
	pending := func() int {
		depth, _ := f.brk.Depth(ResultQueue(ep))
		unacked, _ := f.brk.Unacked(ResultQueue(ep))
		return depth + unacked
	}
	// The malformed message is the burst's last, and each batch is acked as
	// it finishes: once it is gone every batch has been through the journal.
	for deadline := time.Now().Add(5 * time.Second); pending() > 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("result processor left %d messages, want the malformed one dropped", pending())
		}
	}
	time.Sleep(50 * time.Millisecond) // room for a wrong ack to land
	if n := pending(); n != 3 {
		t.Fatalf("%d results left on the queue after a journal failure, want 3", n)
	}
	select {
	case m := <-stream.Messages():
		t.Fatalf("unrecorded result streamed to the group: %s", m.Body)
	default:
	}
	for _, id := range ids {
		if st, err := f.svc.GetTask(id); err != nil || st.State != protocol.StateDelivered {
			t.Fatalf("task %s = %s, %v; want delivered", id, st.State, err)
		}
	}

	// The journal recovers; the old processor's consumer closes (as on a
	// restart), its unacknowledged results redeliver to a new one.
	down.Store(false)
	f.svc.Close()
	svc, err := New(Config{Store: f.store, Broker: f.brk, Objects: f.objs, Auth: f.authS})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.ResumeEndpoints(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st := waitTask(t, svc, id, 5*time.Second); st.State != protocol.StateSuccess {
			t.Fatalf("task %s = %s after the journal recovered", id, st.State)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case m := <-stream.Messages():
			stream.Ack(m.Tag)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 3 results streamed after the journal recovered", i)
		}
	}
	if n := pending(); n != 0 {
		t.Fatalf("%d results still on the queue after recording", n)
	}
}

// TestResultRecordedThenStreamedThenAcked pins the order of a result's three
// journaled steps: the state log records it, then the group queue takes it,
// and only then is its result-queue message acknowledged — whichever step a
// crash interrupts, the result is redelivered rather than lost.
func TestResultRecordedThenStreamedThenAcked(t *testing.T) {
	f := newFixture(t)
	var mu sync.Mutex
	var events []string
	note := func(e string) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	group, ids := submitGrouped(t, f, ep, fn, 1)
	f.store.SetJournal(hookJournal(func(m statestore.Mutation) error {
		note(string(m.Op))
		return nil
	}))
	f.brk.SetJournal(hookBrokerJournal{event: func(op, queue string) {
		if queue == GroupResultQueue(group) {
			if st, _ := f.svc.GetTask(ids[0]); st.State != protocol.StateSuccess {
				t.Errorf("result streamed while its task reads %s", st.State)
			}
		}
		note(op + " " + queue)
	}})
	if err := f.brk.PublishBatch(ResultQueue(ep), resultBodies(t, ep, ids), nil); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"pub " + ResultQueue(ep), string(statestore.OpCompleteTasks),
		"pub " + GroupResultQueue(group), "ack " + ResultQueue(ep),
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		got := append([]string(nil), events...)
		mu.Unlock()
		if len(got) >= len(want) || time.Now().After(deadline) {
			if !slices.Equal(got, want) {
				t.Fatalf("journaled steps %q, want %q", got, want)
			}
			return
		}
	}
}

// TestCommitBudget pins the durable path's commit budget on the shipped
// assembly: a submit batch is two WAL records (admit + publish) whatever its
// size, and a result batch is a handful (the agent's publish, complete, the
// group publish, and the coalesced async ack records) — so nothing per-task
// can come back unnoticed. The stream's consumer here acks every result
// singly, which is what an executor's one-ack-per-drain becomes at low load,
// where each drain holds one result.
func TestCommitBudget(t *testing.T) {
	st, err := OpenStack(StackConfig{DataDir: t.TempDir(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	f := stackFixture(t, st)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	appends := st.Service.cfg.DurableMetrics.Counter("wal_appends")
	fsyncs := st.Service.cfg.DurableMetrics.Histogram("wal_fsync")
	// Each step may also see the 25 ms flusher commit async records once per log.
	const flusher = 2

	const n = 64
	group := protocol.NewUUID()
	if err := f.brk.Declare(GroupResultQueue(group)); err != nil {
		t.Fatal(err)
	}
	stream, err := f.brk.Consume(GroupResultQueue(group), n)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	reqs := make([]SubmitRequest, n)
	for i := range reqs {
		reqs[i] = SubmitRequest{EndpointID: ep, FunctionID: fn, Payload: []byte(`{}`), GroupID: group}
	}
	time.Sleep(2 * durable.DefaultFlushEvery) // let the declare records above commit
	a0, s0 := appends.Value(), fsyncs.Count()
	ids, err := f.svc.Submit(f.token, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := appends.Value() - a0; got != 2 {
		t.Errorf("a %d-task submit appended %d WAL records, want 2 (admit + publish)", n, got)
	}
	if got := fsyncs.Count() - s0; got > 2+flusher {
		t.Errorf("a %d-task submit took %d fsyncs, want <= %d", n, got, 2+flusher)
	}

	// One result batch, formed by hand so its size is exact: the service's
	// own processor is stopped and the batch goes through the same routine.
	st.Service.Close()
	c, err := f.brk.Consume(ResultQueue(ep), n)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a0, s0 = appends.Value(), fsyncs.Count()
	if err := f.brk.PublishBatch(ResultQueue(ep), resultBodies(t, ep, ids), nil); err != nil {
		t.Fatal(err)
	}
	batch := make([]broker.Message, n)
	for i := range batch {
		batch[i] = <-c.Messages()
	}
	st.Service.processResultBatch(c, batch, &resultScratch{})
	for i := 0; i < n; i++ {
		select {
		case m := <-stream.Messages():
			if err := stream.Ack(m.Tag); err != nil { // the worst case: one ack per result
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d results streamed", i, n)
		}
	}
	time.Sleep(2 * durable.DefaultFlushEvery) // the journal holds acks back to coalesce them
	if got := appends.Value() - a0; got > 6 {
		t.Errorf("a %d-result batch appended %d WAL records, want <= 6", n, got)
	}
	if got := fsyncs.Count() - s0; got > 3+flusher {
		t.Errorf("a %d-result batch took %d fsyncs, want <= %d", n, got, 3+flusher)
	}
	if got := st.Store.CountTasksByState()[protocol.StateSuccess]; got != n {
		t.Errorf("%d tasks succeeded, want %d", got, n)
	}
}
