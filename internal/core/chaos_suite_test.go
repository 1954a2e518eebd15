package core_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/chaos"
	"globuscompute/internal/core"
	"globuscompute/internal/engine"
	"globuscompute/internal/metrics"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
	"globuscompute/internal/trace"
	"globuscompute/internal/webservice"
)

// chaosSeed fixes every fault decision in the suite so failures reproduce:
// rerun with the same seed and the injectors draw the same sequence.
const chaosSeed = 42

// startChaosEndpoint starts an endpoint on the connection stack the fault
// suites run: a ReconnectingConn whose every (re)dial hands back a fresh
// chaos.WrapConn around the in-process broker, so drops keep firing across
// reconnects. under, when set, is placed between the fault wrapper and the
// broker: it sees what survives the faults. It returns the endpoint ID and
// the registry holding the connection's reconnect counters.
func startChaosEndpoint(t *testing.T, tb *core.Testbed, inj *chaos.Injector, cf chaos.ConnFaults,
	rf chaos.RunnerFaults, maxAttempts int, under func(broker.Conn) broker.Conn) (protocol.UUID, *metrics.Registry) {
	t.Helper()
	var brokerMetrics *metrics.Registry
	epID, err := tb.StartEndpoint(core.EndpointOptions{
		Name: "chaos-suite-ep", Owner: "chaos", Workers: 4, MaxBlocks: 1,
		MaxAttempts: maxAttempts,
		WrapRunner: func(run engine.TaskRunner) engine.TaskRunner {
			return chaos.WrapRunner(run, inj, rf)
		},
		WrapConn: func(inner broker.Conn) broker.Conn {
			if under != nil {
				inner = under(inner)
			}
			rc, err := broker.NewReconnecting(func() (broker.Conn, error) {
				return chaos.WrapConn(inner, inj, cf), nil
			})
			if err != nil {
				t.Errorf("reconnecting conn: %v", err)
				return inner
			}
			brokerMetrics = rc.Metrics
			return rc
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return epID, brokerMetrics
}

// waitTerminal polls a task until it reaches a terminal state.
func waitTerminal(t *testing.T, tb *core.Testbed, id protocol.UUID) webservice.TaskStatus {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		st, err := tb.Service.GetTask(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("task %s stuck in %s under chaos", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosSuiteDeliveryGuarantees drives the full stack — web service,
// broker, endpoint agent, engine, workers — under injected faults on every
// process boundary (connection drops, publish failures, worker kills) and
// asserts the delivery guarantees hold:
//
//  1. every submitted task reaches a terminal state (nothing lost, nothing
//     stuck), with duplicate deliveries resolved by the task state machine
//     to exactly one terminal state;
//  2. a poison task (kills its worker on every attempt) dead-letters after
//     exactly MaxAttempts tries instead of cycling forever;
//  3. the robustness counters (resubscribes, dead-letters, injected faults)
//     show the faults actually fired and were absorbed.
func TestChaosSuiteDeliveryGuarantees(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tok, err := tb.IssueToken("chaos@uchicago.edu", "uchicago")
	if err != nil {
		t.Fatal(err)
	}
	fnID, err := tb.Service.RegisterFunction("chaos", protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
	if err != nil {
		t.Fatal(err)
	}

	inj := chaos.NewInjector(chaosSeed)
	connFaults := chaos.ConnFaults{
		PublishFailRate: 0.10,
		DropRate:        0.08,
		PublishDelay:    time.Millisecond,

		PublishDelayRate: 0.10,
	}
	const maxAttempts = 3
	var poisonRuns atomic.Int64
	runnerFaults := chaos.RunnerFaults{
		KillRate: 0.15,
		KillIf: func(task protocol.Task) bool {
			if strings.Contains(string(task.Payload), "poison") {
				poisonRuns.Add(1)
				return true
			}
			return false
		},
		Delay:     time.Millisecond,
		DelayRate: 0.2,
	}
	epID, brokerMetrics := startChaosEndpoint(t, tb, inj, connFaults, runnerFaults, maxAttempts, nil)

	submit := func(payload string) protocol.UUID {
		body, _ := protocol.EncodePayload(protocol.PythonSpec{
			Entrypoint: "identity",
			Args:       []json.RawMessage{json.RawMessage(payload)},
		})
		ids, err := tb.Service.Submit(tok, []webservice.SubmitRequest{
			{EndpointID: epID, FunctionID: fnID, Payload: body},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids[0]
	}

	// Phase 1: waves of ordinary tasks through the fault storm, until every
	// kind of fault has fired. A publish of N results draws one decision, so
	// a wave that flushed in a few batches can pass without a publish failure.
	const wave, maxWaves = 40, 25
	var ids []protocol.UUID
	success, failed := 0, 0
	for w := 0; w < maxWaves && (inj.Fired("conn.drop") == 0 ||
		inj.Fired("conn.publish_fail") == 0 || inj.Fired("runner.kill") == 0); w++ {
		for i := 0; i < wave; i++ {
			ids = append(ids, submit(fmt.Sprintf("%d", i)))
		}
		for _, id := range ids[len(ids)-wave:] {
			switch st := waitTerminal(t, tb, id); st.State {
			case protocol.StateSuccess:
				success++
			default:
				failed++
			}
		}
	}
	n := len(ids)
	// KillRate^maxAttempts is ~3e-3 per task: nearly everything succeeds.
	if success < n*3/4 {
		t.Errorf("successes = %d of %d, suspiciously low for the configured fault rates", success, n)
	}

	// Phase 2: quiet the random faults, then submit the poison task. KillIf
	// fires regardless of the injector switch, so this isolates the
	// dead-letter path: delivered once, killed exactly maxAttempts times.
	inj.SetDisabled(true)
	poisonID := submit(`"poison"`)
	st := waitTerminal(t, tb, poisonID)
	if st.State != protocol.StateFailed {
		t.Errorf("poison state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "attempts") {
		t.Errorf("poison error = %q, want attempt-budget message", st.Error)
	}
	if got := poisonRuns.Load(); got != maxAttempts {
		t.Errorf("poison task ran %d times, want exactly MaxAttempts=%d", got, maxAttempts)
	}
	// One dead letter for the poison task plus one per phase-1 task the
	// random kills exhausted (about one run in eight has one). The result
	// processor counts a dead letter just after recording the terminal state
	// waitTerminal saw, hence the wait.
	wantDead := int64(failed) + 1
	waitFor(t, 5*time.Second, fmt.Sprintf("webservice deadlettered_tasks = %d", wantDead), func() bool {
		return tb.Service.Metrics.Counter("deadlettered_tasks").Value() == wantDead
	})

	// Terminal states are immutable: re-reading every task yields the same
	// state (duplicate deliveries were absorbed, not double-completed).
	for _, id := range ids {
		st1, _ := tb.Service.GetTask(id)
		st2, _ := tb.Service.GetTask(id)
		if st1.State != st2.State || !st1.State.Terminal() {
			t.Errorf("task %s unstable terminal state: %s vs %s", id, st1.State, st2.State)
		}
	}

	// The storm actually happened and was absorbed.
	if inj.Fired("conn.drop") == 0 {
		t.Error("no connection drops fired; fault injection dormant")
	}
	if inj.Fired("conn.publish_fail") == 0 {
		t.Error("no publish failures fired")
	}
	if inj.Fired("runner.kill") == 0 {
		t.Error("no worker kills fired")
	}
	if v := brokerMetrics.Counter("resubscribes").Value(); v == 0 {
		t.Error("no resubscribes recorded despite connection drops")
	}
	// Requeue spans made it into the trace collector (engine.requeue is the
	// retry breadcrumb; engine.deadletter marks the poison task's exit).
	var requeues, deadletters int
	for _, sp := range tb.Traces.Snapshot() {
		switch sp.Name {
		case "engine.requeue":
			requeues++
		case "engine.deadletter":
			deadletters++
		}
	}
	if requeues == 0 {
		t.Error("no engine.requeue spans recorded")
	}
	if deadletters == 0 {
		t.Error("no engine.deadletter spans recorded")
	}
	t.Logf("chaos suite: %d/%d success, %d failed; faults fired=%d (drops=%d kills=%d pubfails=%d) resubscribes=%d requeue spans=%d",
		success, n, failed, inj.TotalFired(), inj.Fired("conn.drop"), inj.Fired("runner.kill"),
		inj.Fired("conn.publish_fail"), brokerMetrics.Counter("resubscribes").Value(), requeues)
}

// TestChaosExecutorStream crosses the fault injector with the SDK executor,
// which no other chaos case does: its result stream's broker connection drops
// (the subscription resubscribes and everything delivered but not yet acked
// redelivers, including results already resolved, since a drain is acked
// after it resolves), and its REST calls fail in transport or with 503s and
// retry. Every future must resolve exactly once with its own output, and the
// redelivered duplicates must be absorbed.
func TestChaosExecutorStream(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	s := newStack(t)
	epID, err := s.tb.StartEndpoint(core.EndpointOptions{Name: "chaos-executor-ep", Owner: "alice@uchicago.edu", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.NewInjector(chaosSeed)
	conn, err := broker.NewReconnecting(func() (broker.Conn, error) {
		return chaos.WrapConn(s.conn, inj, chaos.ConnFaults{DropRate: 0.02}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	connMetrics := conn.Metrics
	t.Cleanup(conn.Close)
	s.client.HTTP = &http.Client{Timeout: 30 * time.Second, Transport: &chaos.RoundTripper{
		Inj: inj, Faults: chaos.HTTPFaults{ErrorRate: 0.05, ServerErrorRate: 0.05},
	}}
	s.client.MaxRetries, s.client.RetryBaseDelay, s.client.RetryMaxDelay = 10, time.Millisecond, 10*time.Millisecond
	spans := trace.NewCollector(1 << 14)
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: s.client, EndpointID: epID, Conn: conn, Objects: s.objs,
		Tracer: trace.NewTracer("sdk", spans),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)

	// Waves of submissions until at least minTasks results have streamed and
	// both kinds of fault have fired.
	const wave, minTasks, maxWaves = 50, 1000, 60
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	httpFaults := func() int64 { return inj.Fired("http.error") + inj.Fired("http.500") }
	tasks := 0
	for w := 0; w < maxWaves && (tasks < minTasks || inj.Fired("conn.drop") == 0 || httpFaults() == 0); w++ {
		futs := make([]*sdk.Future, wave)
		for i := range futs {
			if futs[i], err = ex.Submit(fn, tasks+i); err != nil {
				t.Fatal(err)
			}
		}
		for i, fut := range futs {
			out, err := fut.ResultWithin(60 * time.Second)
			if err != nil {
				t.Fatalf("task %d: %v", tasks+i, err)
			}
			if want := fmt.Sprint(tasks + i); string(out) != want {
				t.Errorf("task %d resolved with %s, want %s", tasks+i, out, want)
			}
		}
		tasks += wave
	}

	// Quiet the faults and let every redelivery land, then count resolutions:
	// an sdk.resolve span is recorded each time a future is resolved.
	inj.SetDisabled(true)
	q := webservice.GroupResultQueue(ex.Group())
	waitFor(t, 10*time.Second, "group queue drained", func() bool {
		d, _ := s.tb.Broker.Depth(q)
		u, _ := s.tb.Broker.Unacked(q)
		return d+u == 0
	})
	resolved := map[string]int{}
	for _, sp := range spans.Snapshot() {
		if sp.Name == "sdk.resolve" {
			resolved[sp.Attrs["task"]]++
		}
	}
	if len(resolved) != tasks {
		t.Errorf("%d of %d futures recorded a resolution", len(resolved), tasks)
	}
	for id, n := range resolved {
		if n != 1 {
			t.Errorf("task %s resolved %d times, want exactly once", id, n)
		}
	}
	if n := spans.Dropped(); n != 0 {
		t.Errorf("span ring dropped %d spans; the resolution count is incomplete", n)
	}

	requeued := s.tb.Broker.Metrics.Counter("requeued." + q).Value()
	delivered := s.tb.Broker.Metrics.Counter("delivered." + q).Value()
	if inj.Fired("conn.drop") == 0 || connMetrics.Counter("resubscribes").Value() == 0 {
		t.Errorf("no stream drops fired (drops=%d resubscribes=%d)", inj.Fired("conn.drop"), connMetrics.Counter("resubscribes").Value())
	}
	if requeued == 0 {
		t.Error("no result was redelivered to the executor despite stream drops")
	}
	if httpFaults() == 0 {
		t.Error("no REST faults fired")
	}
	t.Logf("%d tasks, %d deliveries (%d requeued); drops=%d resubscribes=%d http faults=%d retries=%d",
		tasks, delivered, requeued, inj.Fired("conn.drop"), connMetrics.Counter("resubscribes").Value(),
		httpFaults(), s.client.Retries.Load())
}

// countingConn sits under the fault injector and counts the publishes of
// more than one body and the acks of more than one tag that reach the real
// connection.
type countingConn struct {
	broker.Conn
	batchPublishes, batchAcks atomic.Int64
}

func (c *countingConn) PublishBatch(queue string, bodies [][]byte, traces []trace.Context) error {
	if len(bodies) > 1 {
		c.batchPublishes.Add(1)
	}
	return c.Conn.PublishBatch(queue, bodies, traces)
}

func (c *countingConn) Subscribe(queue string, prefetch int) (broker.Subscription, error) {
	sub, err := c.Conn.Subscribe(queue, prefetch)
	if err != nil {
		return nil, err
	}
	return countingSub{sub, c}, nil
}

type countingSub struct {
	broker.Subscription
	c *countingConn
}

func (s countingSub) Ack(tags ...uint64) error {
	if len(tags) > 1 {
		s.c.batchAcks.Add(1)
	}
	return s.Subscription.Ack(tags...)
}

// TestChaosSuiteExercisesBatchedPath checks that the fault suite runs the
// path gc-endpoint ships: with publish failures and connection drops firing,
// multi-result flushes and multi-tag acks still cross the fault injector as
// batches and reach the connection under it, and every task ends in exactly
// one terminal state. Every publish is delayed, so results outrun the
// agent's four flush slots and have to coalesce.
func TestChaosSuiteExercisesBatchedPath(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tok, err := tb.IssueToken("chaos@uchicago.edu", "uchicago")
	if err != nil {
		t.Fatal(err)
	}
	fnID, err := tb.Service.RegisterFunction("chaos", protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.NewInjector(chaosSeed)
	counting := &countingConn{}
	epID, _ := startChaosEndpoint(t, tb, inj,
		chaos.ConnFaults{PublishFailRate: 0.10, DropRate: 0.02, PublishDelay: 2 * time.Millisecond, PublishDelayRate: 1},
		chaos.RunnerFaults{}, 3,
		func(inner broker.Conn) broker.Conn {
			counting.Conn = inner
			return counting
		})

	// Each round is one submit call: the tasks reach the task queue together,
	// so intake drains — and acknowledges — more than one at a time. Rounds
	// repeat until both faults have fired on a run that batched.
	const perRound, maxRounds = 100, 30
	var ids []protocol.UUID
	stormed := func() bool {
		return inj.Fired("conn.publish_fail") > 0 && inj.Fired("conn.drop") > 0 &&
			counting.batchPublishes.Load() > 0 && counting.batchAcks.Load() > 0
	}
	for round := 0; round < maxRounds && !stormed(); round++ {
		reqs := make([]webservice.SubmitRequest, perRound)
		for i := range reqs {
			body, err := protocol.EncodePayload(protocol.PythonSpec{
				Entrypoint: "identity", Args: []json.RawMessage{json.RawMessage(fmt.Sprint(i))},
			})
			if err != nil {
				t.Fatal(err)
			}
			reqs[i] = webservice.SubmitRequest{EndpointID: epID, FunctionID: fnID, Payload: body}
		}
		got, err := tb.Service.Submit(tok, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range got {
			if st := waitTerminal(t, tb, id); st.State != protocol.StateSuccess {
				t.Errorf("task %s ended %s: %s", id, st.State, st.Error)
			}
		}
		ids = append(ids, got...)
	}
	// Redeliveries after a drop produce duplicate results; the state machine
	// keeps the first. Let the stragglers land, then read every task again.
	inj.SetDisabled(true)
	waitFor(t, 10*time.Second, "result queue drained", func() bool {
		d, _ := tb.Broker.Depth(webservice.ResultQueue(epID))
		u, _ := tb.Broker.Unacked(webservice.ResultQueue(epID))
		return d+u == 0
	})
	for _, id := range ids {
		if st, err := tb.Service.GetTask(id); err != nil || st.State != protocol.StateSuccess {
			t.Errorf("task %s re-read as %s, %v", id, st.State, err)
		}
	}
	if counts := tb.Store.CountTasksByState(); counts[protocol.StateSuccess] != len(ids) || tb.Store.CountTasks() != len(ids) {
		t.Errorf("task states = %v, want %d success and nothing else", counts, len(ids))
	}

	if inj.Fired("conn.publish_fail") == 0 || inj.Fired("conn.drop") == 0 {
		t.Errorf("faults dormant: publish_fail=%d drop=%d", inj.Fired("conn.publish_fail"), inj.Fired("conn.drop"))
	}
	if counting.batchPublishes.Load() == 0 {
		t.Error("no multi-result publish reached the connection under the fault injector; egress flushes are not crossing it as batches")
	}
	if counting.batchAcks.Load() == 0 {
		t.Error("no multi-tag ack reached the connection under the fault injector; intake acks are not crossing it as batches")
	}
	t.Logf("%d tasks; batch publishes=%d batch acks=%d; publish_fail=%d drop=%d",
		len(ids), counting.batchPublishes.Load(), counting.batchAcks.Load(), inj.Fired("conn.publish_fail"), inj.Fired("conn.drop"))
}
