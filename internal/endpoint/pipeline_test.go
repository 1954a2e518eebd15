package endpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
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
// buffered channel and every Ack call is recorded with the tags it carried.
type fakeSub struct {
	msgs chan broker.Message

	mu         sync.Mutex
	acks       [][]uint64
	rejects    []uint64
	cancelOnce sync.Once
}

func newFakeSub(buf int) *fakeSub {
	return &fakeSub{msgs: make(chan broker.Message, buf)}
}

func (s *fakeSub) Messages() <-chan broker.Message { return s.msgs }

func (s *fakeSub) Ack(tags ...uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acks = append(s.acks, append([]uint64(nil), tags...))
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
	var out []uint64
	for _, call := range s.acks {
		out = append(out, call...)
	}
	return out
}

// fakeConn records every publish call with the bodies it carried. hold, when
// set, blocks every publish until released so a test can pile results behind
// in-flight flushes; fail, when set, decides each call's outcome.
type fakeConn struct {
	sub broker.Subscription

	mu      sync.Mutex
	calls   [][][]byte
	hold    chan struct{}
	waiting int
	fail    func(bodies [][]byte) error
}

func (c *fakeConn) Declare(queue string) error { return nil }
func (c *fakeConn) Delete(queue string) error  { return nil }

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

func (c *fakeConn) PublishBatch(queue string, bodies [][]byte, traces []trace.Context) error {
	c.gate()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		if err := c.fail(bodies); err != nil {
			return err
		}
	}
	cp := make([][]byte, len(bodies))
	for i, b := range bodies {
		cp[i] = append([]byte(nil), b...)
	}
	c.calls = append(c.calls, cp)
	return nil
}

func (c *fakeConn) Subscribe(queue string, prefetch int) (broker.Subscription, error) {
	return c.sub, nil
}

// published returns the bodies of every successful publish call.
func (c *fakeConn) published() [][][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][][]byte(nil), c.calls...)
}

func (c *fakeConn) totalPublished() int {
	n := 0
	for _, call := range c.published() {
		n += len(call)
	}
	return n
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
// checks one intake wakeup drains them all: a single Ack call carrying every
// tag, and one intake_batches tick.
func TestPipelineBatchedIntakeAcksInOneBatch(t *testing.T) {
	sub := newFakeSub(32)
	conn := &fakeConn{sub: sub}
	const n = 8
	for i := 0; i < n; i++ {
		loadTask(t, sub, uint64(100+i), fmt.Sprintf(`"p%d"`, i))
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
	waitFor(t, "all tags acked", func() bool { return len(sub.ackedTags()) == n })
	sub.mu.Lock()
	calls := len(sub.acks)
	sub.mu.Unlock()
	if calls != 1 {
		t.Errorf("%d Ack calls for one drain of %d; want 1", calls, n)
	}
}

// pileUpResults puts one result in flight behind a held publish, queues rest
// more behind it, and releases the hold: the queued results have to
// group-commit, so at least one flush carries more than one result.
func pileUpResults(t *testing.T, agent *Agent, conn *fakeConn, release chan struct{}, rest int) {
	t.Helper()
	agent.failures <- protocol.Result{TaskID: protocol.NewUUID(), State: protocol.StateSuccess}
	waitFor(t, "first flush in flight", func() bool { return conn.inFlight() == 1 })
	for i := 0; i < rest; i++ {
		agent.failures <- protocol.Result{TaskID: protocol.NewUUID(), State: protocol.StateSuccess}
	}
	waitFor(t, "results buffered", func() bool { return int(agent.egressPending()) >= rest+1 })
	close(release)
}

// TestPipelineEgressGroupCommit holds every publish in flight while results
// pile up, then checks the backlog coalesces: with at most egressFlightCap
// flushes outstanding, the queued results must go out as multi-result
// publishes rather than one by one.
func TestPipelineEgressGroupCommit(t *testing.T) {
	sub := newFakeSub(8)
	release := make(chan struct{})
	conn := &fakeConn{sub: sub, hold: release}
	agent := pipelineAgent(t, conn, instantRunner)

	const rest = 8
	pileUpResults(t, agent, conn, release, rest)

	const total = rest + 1
	waitFor(t, "all results published", func() bool { return conn.totalPublished() == total })
	flushes := conn.published()
	if len(flushes) >= total {
		t.Errorf("%d flushes for %d results; group commit never batched (sizes %v)", len(flushes), total, batchSizes(flushes))
	}
	waitFor(t, "backlog drained", func() bool { return agent.egressPending() == 0 })
	if got := agent.Metrics.Counter("egress_flushes").Value(); got != int64(len(flushes)) {
		t.Errorf("egress_flushes = %d, want %d", got, len(flushes))
	}
}

// TestEgressBacklogCountsUnpublished holds every publisher in flight with
// one result each and finishes more tasks behind them: egress_backlog, in
// the load report and on /metrics, counts every finished result not yet
// published, those still in the engine's result channel included, and
// drains to zero once the publishes go through.
func TestEgressBacklogCountsUnpublished(t *testing.T) {
	sub := newFakeSub(64)
	release := make(chan struct{})
	conn := &fakeConn{sub: sub, hold: release}
	agent := pipelineAgent(t, conn, instantRunner)
	tag := uint64(0)
	for i := 1; i <= egressFlightCap; i++ {
		tag++
		loadTask(t, sub, tag, `"held"`)
		waitFor(t, "one more flush in flight", func() bool { return conn.inFlight() == i })
	}
	const queued = 10
	for i := 0; i < queued; i++ {
		tag++
		loadTask(t, sub, tag, `"queued"`)
	}
	const want = egressFlightCap + queued
	eng := agent.cfg.Engine
	waitFor(t, "every task finished", func() bool { return eng.Stats().TasksCompleted == want })
	if got := len(eng.Results()); got != queued {
		t.Errorf("%d results in the engine's channel, want %d", got, queued)
	}
	if got := *agent.SnapshotLoad().EgressBacklog; got != want {
		t.Errorf("load report egress backlog = %d, want %d", got, want)
	}
	var text strings.Builder
	if err := agent.WriteMetrics(&text); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("gc_endpoint_egress_backlog %d\n", want); !strings.Contains(text.String(), line) {
		t.Errorf("/metrics lacks %q", line)
	}
	if !agent.Busy() {
		t.Error("agent with unpublished results reports idle")
	}
	close(release)
	waitFor(t, "backlog drained", func() bool { return agent.egressPending() == 0 })
	if got := conn.totalPublished(); got != want {
		t.Errorf("%d results published, want %d", got, want)
	}
}

func batchSizes(batches [][][]byte) []int {
	out := make([]int, len(batches))
	for i, b := range batches {
		out[i] = len(b)
	}
	return out
}

// TestPipelineBatchFailureFallsBackPerResult keeps PR 4's guarantee now that
// every flush is a batch: a conn on which every multi-result publish fails,
// and every result's first lone publish fails too, still gets every result
// out. The failed flush falls back to per-result publishes, and each of
// those has the reconnecting conn's retry budget to itself.
func TestPipelineBatchFailureFallsBackPerResult(t *testing.T) {
	sub := newFakeSub(8)
	release := make(chan struct{})
	seen := map[string]bool{}
	fake := &fakeConn{sub: sub, hold: release, fail: func(bodies [][]byte) error {
		if len(bodies) > 1 {
			return broker.ErrClosed
		}
		if body := string(bodies[0]); !seen[body] {
			seen[body] = true
			return broker.ErrClosed
		}
		return nil
	}}
	conn, err := broker.NewReconnecting(broker.ReconnectConfig{
		Dial:            func() (broker.Conn, error) { return fake, nil },
		BaseDelay:       time.Millisecond,
		PublishAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	agent := pipelineAgent(t, conn, instantRunner)

	const rest = 8
	pileUpResults(t, agent, fake, release, rest)

	const total = rest + 1
	waitFor(t, "all results published", func() bool { return fake.totalPublished() == total })
	waitFor(t, "backlog drained", func() bool { return agent.egressPending() == 0 })
	ids := map[protocol.UUID]bool{}
	for _, call := range fake.published() {
		if len(call) != 1 {
			t.Fatalf("a publish of %d results succeeded on a conn that fails them", len(call))
		}
		res, err := protocol.DecodeResult(call[0])
		if err != nil {
			t.Fatal(err)
		}
		ids[res.TaskID] = true
	}
	if len(ids) != total {
		t.Errorf("%d distinct results published, want %d", len(ids), total)
	}
	if got := agent.Metrics.Counter("results_published").Value(); got != total {
		t.Errorf("results_published = %d, want %d", got, total)
	}
	// Every result used a retry of its own, on top of the batches' retries.
	if got := conn.Metrics.Counter("publish_retries").Value(); got < total+1 {
		t.Errorf("publish_retries = %d, want at least %d", got, total+1)
	}
}

// TestPipelineMalformedInBatchDeadLetters mixes a poison body into an intake
// batch: the poison is rejected to the DLQ exactly once, the good tasks run
// and ack, and nothing redelivers forever.
func TestPipelineMalformedInBatchDeadLetters(t *testing.T) {
	sub := newFakeSub(16)
	conn := &fakeConn{sub: sub}
	loadTask(t, sub, 1, `"before"`)
	sub.msgs <- broker.Message{Tag: 2, Body: []byte("not json")}
	loadTask(t, sub, 3, `"after"`)
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
	waitFor(t, "good tasks acked", func() bool { return len(sub.ackedTags()) >= 2 })
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
	loadTask(t, sub, 4, `"postmortem"`)
	waitFor(t, "post-poison task published", func() bool { return conn.totalPublished() == 3 })
}

// TestAdaptivePrefetchBoundsPending saturates a gated one-worker engine with
// a deep backlog of deliveries and checks intake stops pulling: the engine's
// pending queue stays near the high-water mark instead of absorbing the
// whole queue, and once the gate opens everything completes.
func TestAdaptivePrefetchBoundsPending(t *testing.T) {
	sub := newFakeSub(64)
	conn := &fakeConn{sub: sub}
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
		loadTask(t, sub, uint64(i+1), fmt.Sprintf(`"p%d"`, i))
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
