package experiments

import (
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/webservice"
)

// TestChaosRoutingChurn kills a routing-group member mid-storm and asserts
// the placement layer reroutes around it: the member's offline report lands
// synchronously, so within one heartbeat interval every new submission
// resolves to a survivor. The dead endpoint is then revived and every task
// ever admitted — including those stranded on the dead member's queue —
// reaches exactly one terminal state (part of `make chaos`).
func TestChaosRoutingChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const base = 25 * time.Millisecond
	f, err := StartRouteFleet(RouteFleetOptions{
		Endpoints:      24,
		SlowFactor:     1, // uniform fleet: churn is the variable under test
		BaseService:    base,
		HeartbeatEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	batch := make([]webservice.SubmitRequest, 10)
	for i := range batch {
		batch[i] = webservice.SubmitRequest{EndpointID: f.Group, FunctionID: f.Fn, Payload: []byte(`{"entrypoint":"identity","args":[1]}`)}
	}
	storm := func(batches int) []protocol.UUID {
		ids := make([]protocol.UUID, 0, batches*len(batch))
		for i := 0; i < batches; i++ {
			got, err := f.Service.Submit(f.Tok, batch)
			if err != nil {
				t.Fatalf("submit batch %d: %v", i, err)
			}
			ids = append(ids, got...)
			time.Sleep(5 * time.Millisecond)
		}
		return ids
	}

	// Phase 1: storm with the full fleet up.
	before := storm(30)

	// Kill a member mid-storm, then give the router one heartbeat interval
	// (candidate snapshots refresh on a much shorter TTL) before measuring.
	const victim = 3
	deadID := f.Endpoints[victim]
	f.stopEndpoint(victim)
	time.Sleep(f.Opts.HeartbeatEvery)

	// Phase 2: every post-death submission must resolve to a survivor.
	after := storm(30)
	recs := f.Store.GetTaskRecords(after)
	for _, id := range after {
		rec, ok := recs[id]
		if !ok {
			t.Fatalf("task %s has no record", id)
		}
		if rec.Task.EndpointID == deadID {
			t.Fatalf("task %s routed to dead endpoint %s after churn", id, deadID)
		}
	}

	// Revive the victim so tasks stranded on its queue drain, then every
	// admitted task must settle terminal exactly once.
	if err := f.reviveEndpoint(victim, base); err != nil {
		t.Fatal(err)
	}
	all := append(append([]protocol.UUID(nil), before...), after...)
	deadline := time.Now().Add(60 * time.Second)
	for {
		byState := f.Store.CountTasksByState()
		if byState[protocol.StateSuccess]+byState[protocol.StateFailed] >= len(all) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stranded tasks never drained: %v", byState)
		}
		time.Sleep(10 * time.Millisecond)
	}
	recs = f.Store.GetTaskRecords(all)
	success := 0
	for _, id := range all {
		rec, ok := recs[id]
		if !ok || !rec.State.Terminal() {
			t.Fatalf("task %s not terminal (record: %+v)", id, rec)
		}
		if rec.State == protocol.StateSuccess {
			success++
		}
	}
	if success != len(all) {
		t.Fatalf("successes = %d of %d admitted tasks", success, len(all))
	}
	t.Logf("churn outcome: %d tasks, all terminal success; %d post-death tasks rerouted off %s", len(all), len(after), deadID)
}
