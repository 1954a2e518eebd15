package core_test

import (
	"encoding/json"
	"fmt"
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
	"globuscompute/internal/webservice"
)

// chaosSeed fixes every fault decision in the suite so failures reproduce:
// rerun with the same seed and the injectors draw the same sequence.
const chaosSeed = 42

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
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 2, DisableHTTP: true})
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
	brokerMetrics := metrics.NewRegistry()

	epID, err := tb.StartEndpoint(core.EndpointOptions{
		Name: "chaos-suite-ep", Owner: "chaos", Workers: 4, MaxBlocks: 1,
		MaxAttempts: maxAttempts,
		WrapRunner: func(run engine.TaskRunner) engine.TaskRunner {
			return chaos.WrapRunner(run, inj, runnerFaults)
		},
		WrapConn: func(inner broker.Conn) broker.Conn {
			rc, err := broker.NewReconnecting(broker.ReconnectConfig{
				// Every (re)dial hands back a fresh fault wrapper around the
				// in-process broker, so drops keep firing across reconnects.
				Dial: func() (broker.Conn, error) {
					return chaos.WrapConn(inner, inj, connFaults), nil
				},
				BaseDelay: time.Millisecond,
				MaxDelay:  20 * time.Millisecond,
				Seed:      chaosSeed,
				Metrics:   brokerMetrics,
			})
			if err != nil {
				t.Errorf("reconnecting conn: %v", err)
				return inner
			}
			return rc
		},
	})
	if err != nil {
		t.Fatal(err)
	}

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

	// Phase 1: a stream of ordinary tasks through the fault storm.
	const n = 40
	var ids []protocol.UUID
	for i := 0; i < n; i++ {
		ids = append(ids, submit(fmt.Sprintf("%d", i)))
	}

	waitTerminal := func(id protocol.UUID) webservice.TaskStatus {
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

	success, failed := 0, 0
	for _, id := range ids {
		switch st := waitTerminal(id); st.State {
		case protocol.StateSuccess:
			success++
		default:
			failed++
		}
	}
	if success+failed != n {
		t.Fatalf("terminal = %d of %d", success+failed, n)
	}
	// KillRate^maxAttempts is ~3e-3 per task: nearly everything succeeds.
	if success < n*3/4 {
		t.Errorf("successes = %d of %d, suspiciously low for the configured fault rates", success, n)
	}

	// Phase 2: quiet the random faults, then submit the poison task. KillIf
	// fires regardless of the injector switch, so this isolates the
	// dead-letter path: delivered once, killed exactly maxAttempts times.
	inj.SetDisabled(true)
	poisonID := submit(`"poison"`)
	st := waitTerminal(poisonID)
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
