package endpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/engine"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/trace"
)

// fakeSub is a deterministic Subscription: deliveries are preloaded into a
// buffered channel and every acknowledgement is recorded. It has no AckBatch
// method, modeling an old broker / capability-less wrapper.
type fakeSub struct {
	msgs chan broker.Message

	mu         sync.Mutex
	acks       []uint64
	ackBatches [][]uint64
	rejects    []uint64
	cancelOnce sync.Once
}

func newFakeSub(buf int) *fakeSub {
	return &fakeSub{msgs: make(chan broker.Message, buf)}
}

func (s *fakeSub) Messages() <-chan broker.Message { return s.msgs }

func (s *fakeSub) Ack(tag uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acks = append(s.acks, tag)
	return nil
}

func (s *fakeSub) Nack(tag uint64) error { return nil }

func (s *fakeSub) Reject(tag uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rejects = append(s.rejects, tag)
	return nil
}

func (s *fakeSub) Cancel() error {
	s.cancelOnce.Do(func() { close(s.msgs) })
	return nil
}

func (s *fakeSub) ackedTags() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]uint64(nil), s.acks...)
	for _, b := range s.ackBatches {
		out = append(out, b...)
	}
	return out
}

// batchSub adds the AckBatch capability on top of fakeSub.
type batchSub struct{ *fakeSub }

func (s *batchSub) AckBatch(tags []uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ackBatches = append(s.ackBatches, append([]uint64(nil), tags...))
	return nil
}

// fakeConn records publishes. Like fakeSub it deliberately lacks the batch
// capability; batchConn layers it on. hold, when set, blocks every publish
// until released so a test can pile results behind in-flight flushes.
type fakeConn struct {
	sub broker.Subscription

	mu      sync.Mutex
	singles [][]byte
	batches [][][]byte
	hold    chan struct{}
	waiting int
}

func (c *fakeConn) Declare(queue string) error { return nil }
func (c *fakeConn) Delete(queue string) error  { return nil }
func (c *fakeConn) Publish(queue string, body []byte) error {
	return c.PublishTraced(queue, body, nil)
}

// gate blocks the caller on the hold channel (when set), tracking how many
// publishes are in flight.
func (c *fakeConn) gate() {
	c.mu.Lock()
	hold := c.hold
	c.waiting++
	c.mu.Unlock()
	if hold != nil {
		<-hold
	}
	c.mu.Lock()
	c.waiting--
	c.mu.Unlock()
}

func (c *fakeConn) inFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waiting
}

func (c *fakeConn) PublishTraced(queue string, body []byte, tc *trace.Context) error {
	c.gate()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.singles = append(c.singles, append([]byte(nil), body...))
	return nil
}

func (c *fakeConn) Subscribe(queue string, prefetch int) (broker.Subscription, error) {
	return c.sub, nil
}

func (c *fakeConn) counts() (singles int, batches [][][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.singles), append([][][]byte(nil), c.batches...)
}

func (c *fakeConn) totalPublished() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.singles)
	for _, b := range c.batches {
		n += len(b)
	}
	return n
}

// batchConn adds the PublishBatch capability.
type batchConn struct{ *fakeConn }

func (c *batchConn) PublishBatch(queue string, bodies [][]byte, traces []*trace.Context) error {
	c.gate()
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := make([][]byte, len(bodies))
	for i, b := range bodies {
		cp[i] = append([]byte(nil), b...)
	}
	c.batches = append(c.batches, cp)
	return nil
}

// pipelineAgent wires an agent over a fake conn and a caller-supplied runner.
func pipelineAgent(t *testing.T, conn broker.Conn, run engine.TaskRunner) *Agent {
	t.Helper()
	eng, err := engine.New(engine.Config{
		Provider:   provider.NewLocal(2),
		Run:        run,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		WorkersPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{EndpointID: protocol.NewUUID(), Conn: conn, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Stop)
	return agent
}

func instantRunner(ctx context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
	return protocol.Result{State: protocol.StateSuccess, Output: task.Payload}
}

func loadTask(t *testing.T, sub *fakeSub, tag uint64, payload string) {
	t.Helper()
	body, err := json.Marshal(protocol.Task{
		ID: protocol.NewUUID(), Kind: protocol.KindPython, Payload: []byte(payload),
	})
	if err != nil {
		t.Fatal(err)
	}
	sub.msgs <- broker.Message{Tag: tag, Body: body}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPipelineBatchedIntakeAcksInOneBatch preloads a burst of deliveries and
// checks one intake wakeup drains them all: a single ack_batch round trip
// carrying every tag, and one intake_batches tick.
func TestPipelineBatchedIntakeAcksInOneBatch(t *testing.T) {
	sub := &batchSub{newFakeSub(32)}
	conn := &batchConn{&fakeConn{sub: sub}}
	const n = 8
	for i := 0; i < n; i++ {
		loadTask(t, sub.fakeSub, uint64(100+i), fmt.Sprintf(`"p%d"`, i))
	}
	// The engine is idle, so the adaptive budget is a full batch: one
	// deterministic drain.
	agent := pipelineAgent(t, conn, instantRunner)

	waitFor(t, "all results published", func() bool { return conn.totalPublished() == n })
	if got := agent.Metrics.Counter("tasks_received").Value(); got != n {
		t.Errorf("tasks_received = %d, want %d", got, n)
	}
	if got := agent.Metrics.Counter("intake_batches").Value(); got != 1 {
		t.Errorf("intake_batches = %d, want 1 (single drain)", got)
	}
	sub.mu.Lock()
	batches, singles := len(sub.ackBatches), len(sub.acks)
	var batched int
	if batches == 1 {
		batched = len(sub.ackBatches[0])
	}
	sub.mu.Unlock()
	if batches != 1 || batched != n || singles != 0 {
		t.Errorf("acks: %d batch calls (first=%d tags), %d singles; want 1 batch of %d",
			batches, batched, singles, n)
	}
}

// TestPipelineEgressGroupCommit holds every publish in flight while results
// pile up, then checks the backlog coalesces: with at most egressFlightCap
// flushes outstanding, the queued results must group-commit into
// publish_batch flushes rather than going out one by one — while the lone
// first result still uses the classic traced publish envelope.
func TestPipelineEgressGroupCommit(t *testing.T) {
	sub := &batchSub{newFakeSub(8)}
	release := make(chan struct{})
	conn := &batchConn{&fakeConn{sub: sub, hold: release}}
	agent := pipelineAgent(t, conn, instantRunner)

	agent.enqueueResult(protocol.Result{TaskID: protocol.NewUUID(), State: protocol.StateSuccess})
	// Wait until the egress loop has the first flush in flight, then pile
	// more results behind the held publishes.
	waitFor(t, "first flush in flight", func() bool { return conn.inFlight() == 1 })
	const rest = 8
	for i := 0; i < rest; i++ {
		agent.enqueueResult(protocol.Result{TaskID: protocol.NewUUID(), State: protocol.StateSuccess})
	}
	waitFor(t, "results buffered", func() bool { return int(agent.egressBacklog.Load()) >= rest+1 })
	close(release)

	const total = rest + 1
	waitFor(t, "all results published", func() bool { return conn.totalPublished() == total })
	singles, batches := conn.counts()
	if singles < 1 {
		t.Error("no classic publish recorded; the lone first result must use PublishTraced")
	}
	// 9 results against a bounded number of flush slots: at least one flush
	// had to carry more than one result, via the batch capability.
	if len(batches) == 0 {
		t.Errorf("no publish_batch flushes (%d singles); queued results failed to coalesce", singles)
	}
	flushes := singles + len(batches)
	if flushes >= total {
		t.Errorf("%d flushes for %d results; group commit never batched (sizes %v)", flushes, total, batchSizes(batches))
	}
	if got := agent.Metrics.Counter("egress_flushes").Value(); got != int64(flushes) {
		t.Errorf("egress_flushes = %d, want %d", got, flushes)
	}
	waitFor(t, "backlog drained", func() bool { return agent.egressBacklog.Load() == 0 })
}

func batchSizes(batches [][][]byte) []int {
	out := make([]int, len(batches))
	for i, b := range batches {
		out[i] = len(b)
	}
	return out
}

// TestPipelineOldBrokerInterop runs the pipelined agent against a conn and
// subscription with no batch capabilities at all: acks degrade to per-tag
// Ack, flushes degrade to per-result traced publishes, nothing is lost.
func TestPipelineOldBrokerInterop(t *testing.T) {
	sub := newFakeSub(32)
	conn := &fakeConn{sub: sub}
	const n = 10
	for i := 0; i < n; i++ {
		loadTask(t, sub, uint64(200+i), fmt.Sprintf(`"p%d"`, i))
	}
	agent := pipelineAgent(t, conn, instantRunner)

	waitFor(t, "all results published", func() bool { return conn.totalPublished() == n })
	singles, batches := conn.counts()
	if len(batches) != 0 {
		t.Errorf("batch publishes on a capability-less conn: %v", batchSizes(batches))
	}
	if singles != n {
		t.Errorf("classic publishes = %d, want %d", singles, n)
	}
	waitFor(t, "all tags acked", func() bool { return len(sub.ackedTags()) == n })
	seen := map[uint64]bool{}
	for _, tag := range sub.ackedTags() {
		seen[tag] = true
	}
	for i := 0; i < n; i++ {
		if !seen[uint64(200+i)] {
			t.Errorf("tag %d never acked", 200+i)
		}
	}
	if got := agent.Metrics.Counter("results_published").Value(); got != n {
		t.Errorf("results_published = %d, want %d", got, n)
	}
}

// TestPipelineMalformedInBatchDeadLetters mixes a poison body into an intake
// batch: the poison is rejected to the DLQ exactly once, the good tasks run
// and ack, and nothing redelivers forever.
func TestPipelineMalformedInBatchDeadLetters(t *testing.T) {
	sub := &batchSub{newFakeSub(16)}
	conn := &batchConn{&fakeConn{sub: sub}}
	loadTask(t, sub.fakeSub, 1, `"before"`)
	sub.msgs <- broker.Message{Tag: 2, Body: []byte("not json")}
	loadTask(t, sub.fakeSub, 3, `"after"`)
	agent := pipelineAgent(t, conn, instantRunner)

	waitFor(t, "good tasks published", func() bool { return conn.totalPublished() == 2 })
	if got := agent.Metrics.Counter("dead_lettered").Value(); got != 1 {
		t.Errorf("dead_lettered = %d, want 1", got)
	}
	sub.mu.Lock()
	rejects := append([]uint64(nil), sub.rejects...)
	sub.mu.Unlock()
	if len(rejects) != 1 || rejects[0] != 2 {
		t.Errorf("rejects = %v, want exactly [2]", rejects)
	}
	acked := sub.ackedTags()
	if len(acked) != 2 {
		t.Errorf("acked = %v, want tags 1 and 3", acked)
	}
	for _, tag := range acked {
		if tag == 2 {
			t.Error("poison tag 2 was acked instead of rejected")
		}
	}
	// A task submitted after the poison still flows end to end.
	loadTask(t, sub.fakeSub, 4, `"postmortem"`)
	waitFor(t, "post-poison task published", func() bool { return conn.totalPublished() == 3 })
}

// TestAdaptivePrefetchBoundsPending saturates a gated one-worker engine with
// a deep backlog of deliveries and checks intake stops pulling: the engine's
// pending queue stays near the high-water mark instead of absorbing the
// whole queue, and once the gate opens everything completes.
func TestAdaptivePrefetchBoundsPending(t *testing.T) {
	sub := &batchSub{newFakeSub(64)}
	conn := &batchConn{&fakeConn{sub: sub}}
	gate := make(chan struct{})
	gated := func(ctx context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return protocol.Result{State: protocol.StateSuccess, Output: task.Payload}
	}
	const n = 24
	eng, err := engine.New(engine.Config{
		Provider:   provider.NewLocal(1),
		Run:        gated,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A small prefetch (= intake batch) keeps the backlog high-water mark
	// (floored at one batch) well under the 24 queued deliveries, so the
	// bound is observable.
	agent, err := New(Config{
		EndpointID: protocol.NewUUID(), Conn: conn, Engine: eng,
		Prefetch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
		agent.Stop()
	})

	// Offer the backlog only once the worker is registered: with no workers
	// yet, adaptive prefetch deliberately doesn't throttle (blocking intake
	// on an engine scaling from zero would deadlock the demand signal), and
	// this test is about the steady-state bound.
	waitFor(t, "worker registration", func() bool { return eng.Stats().TotalWorkers >= 1 })
	for i := 0; i < n; i++ {
		loadTask(t, sub.fakeSub, uint64(i+1), fmt.Sprintf(`"p%d"`, i))
	}

	// Let intake run against the saturated engine, tracking the deepest
	// engine backlog it ever builds.
	maxPending := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		if p := eng.Stats().PendingTasks; p > maxPending {
			maxPending = p
		}
		time.Sleep(2 * time.Millisecond)
	}
	// One worker, intake batch 4: the high-water mark is 4, so intake must
	// hold well short of the full 24-task backlog. Allow slack for the
	// trickle in flight.
	const bound = 8
	if maxPending > bound {
		t.Errorf("engine pending reached %d with adaptive prefetch; want <= %d", maxPending, bound)
	}
	if conn.totalPublished() != 0 {
		t.Errorf("results published while gate closed: %d", conn.totalPublished())
	}

	close(gate)
	waitFor(t, "all results published after release", func() bool { return conn.totalPublished() == n })
}
