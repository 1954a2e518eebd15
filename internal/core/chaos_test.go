package core_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"globuscompute/internal/core"
	"globuscompute/internal/protocol"
	"globuscompute/internal/webservice"
)

// TestChaosAgentRestart submits a stream of tasks while the endpoint agent
// is stopped and restarted; every task must still reach a terminal state
// (no silent loss), and work submitted while the agent is down executes
// after it returns — the buffering behaviour the paper's web service
// promises.
func TestChaosAgentRestart(t *testing.T) {
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
	epID, agent, err := tb.StartRestartableEndpoint(core.EndpointOptions{
		Name: "chaos-ep", Owner: "chaos", Workers: 2, MaxBlocks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	submit := func(i int) protocol.UUID {
		payload, _ := protocol.EncodePayload(protocol.PythonSpec{
			Entrypoint: "identity",
			Args:       []json.RawMessage{json.RawMessage(fmt.Sprintf("%d", i))},
		})
		ids, err := tb.Service.Submit(tok, []webservice.SubmitRequest{
			{EndpointID: epID, FunctionID: fnID, Payload: payload},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids[0]
	}

	var ids []protocol.UUID
	// Phase 1: agent up.
	for i := 0; i < 30; i++ {
		ids = append(ids, submit(i))
	}
	// Phase 2: agent down; submissions buffer.
	agent.Stop()
	for i := 30; i < 60; i++ {
		ids = append(ids, submit(i))
	}
	// Phase 3: agent restarts with the same endpoint ID and drains.
	agent2, err := tb.RestartEndpointAgent(epID, core.EndpointOptions{
		Name: "chaos-ep", Owner: "chaos", Workers: 2, MaxBlocks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = agent2
	for i := 60; i < 90; i++ {
		ids = append(ids, submit(i))
	}

	// Every task terminal; everything submitted while the agent was down
	// or after restart must succeed (phase-1 stragglers may have been
	// failed by the agent shutdown, which is a reported outcome, not a
	// loss).
	deadline := time.Now().Add(60 * time.Second)
	success, failed := 0, 0
	for _, id := range ids {
		for {
			st, err := tb.Service.GetTask(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State.Terminal() {
				if st.State == protocol.StateSuccess {
					success++
				} else {
					failed++
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("task %s stuck in %s", id, st.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if success+failed != len(ids) {
		t.Fatalf("terminal = %d of %d", success+failed, len(ids))
	}
	// Phases 2 and 3 (60 tasks) were never exposed to the shutdown.
	if success < 60 {
		t.Errorf("successes = %d, want >= 60 (failures: %d)", success, failed)
	}
	t.Logf("chaos outcome: %d success, %d failed-by-shutdown of %d", success, failed, len(ids))
}
