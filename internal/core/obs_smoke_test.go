package core_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/core"
	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/webservice"
)

// TestObsSmokeFleetPipeline drives the fleet-observability pipeline end to
// end at millisecond scale (the `make obs-smoke` target):
//
//  1. an endpoint heartbeats metric snapshots into the webservice, and
//     GET /metrics/fleet serves a parseable, lint-clean federation scrape;
//  2. killing the agent under load (no offline heartbeat — a crash) drives
//     the heartbeat-staleness and terminal-failure-rate SLOs to firing on
//     GET /debug/fleet;
//  3. restarting the agent recovers both alerts to inactive.
func TestObsSmokeFleetPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	rules := []obs.Rule{
		{
			Name: "heartbeat_staleness", Kind: obs.RuleStaleness,
			MaxStaleness: 250 * time.Millisecond,
		},
		{
			Name: "terminal_failure_rate", Kind: obs.RuleFailureRatio,
			BadCounter: "ws_results_failed", TotalCounter: "ws_results",
			Objective: 0.05, BurnRate: 2,
			FastWindow: 2 * time.Second, SlowWindow: 4 * time.Second,
		},
	}
	tb, err := core.NewTestbed(core.Options{
		ClusterNodes: 2,
		FleetConfig:  obs.FleetConfig{StaleAfter: 400 * time.Millisecond},
		SLORules:     rules,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tok, err := tb.IssueToken("ops@uchicago.edu", "uchicago")
	if err != nil {
		t.Fatal(err)
	}
	// The watchdog turns agent silence into offline status and lease-expired
	// task failures; the evaluator keeps ring coverage moving while the
	// agent is dead so the burn-rate windows have points to look at.
	stopWatchdog := tb.Service.StartWatchdog(webservice.WatchdogConfig{
		HeartbeatTimeout: 200 * time.Millisecond,
		Interval:         50 * time.Millisecond,
		TaskLease:        100 * time.Millisecond,
	})
	defer stopWatchdog()
	stopSLO := tb.Service.StartSLOEvaluator(50 * time.Millisecond)
	defer stopSLO()

	epOpts := core.EndpointOptions{
		Name: "obs-ep", Owner: "ops", Workers: 2, MaxBlocks: 1,
		HeartbeatInterval:        50 * time.Millisecond,
		MetricsInterval:          25 * time.Millisecond,
		SuppressOfflineHeartbeat: true,
	}
	epID, agent, err := tb.StartRestartableEndpoint(epOpts)
	if err != nil {
		t.Fatal(err)
	}
	fnID, err := tb.Service.RegisterFunction("ops", protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
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
	awaitTerminal := func(ids []protocol.UUID, deadline time.Duration) {
		t.Helper()
		limit := time.Now().Add(deadline)
		for _, id := range ids {
			for {
				st, err := tb.Service.GetTask(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.State.Terminal() {
					break
				}
				if time.Now().After(limit) {
					t.Fatalf("task %s stuck in %s", id, st.State)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	// --- Phase 1: healthy traffic, then a federation scrape. ---
	var ids []protocol.UUID
	for i := 0; i < 20; i++ {
		ids = append(ids, submit(i))
	}
	awaitTerminal(ids, 30*time.Second)

	base := "http://" + tb.ServiceAddr()
	scrape := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path + "?token=" + tok.Value)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	// The agent snapshots at most every 25ms and heartbeats every 50ms, so
	// tasks_received should federate within a heartbeat or two.
	var exp *obs.Exposition
	waitFor(t, 10*time.Second, "federated tasks_received", func() bool {
		text := scrape("/metrics/fleet")
		var perr error
		exp, perr = obs.ParseExposition(strings.NewReader(text))
		if perr != nil {
			t.Fatalf("federation scrape does not parse: %v\n%s", perr, text)
		}
		if issues := exp.Lint(); len(issues) > 0 {
			t.Fatalf("federation scrape fails lint: %v", issues)
		}
		s, ok := exp.Sample("gc_endpoint_tasks_received_total", map[string]string{"endpoint_id": string(epID)})
		return ok && s.Value >= 20
	})
	if s, ok := exp.Sample("gc_endpoint_up", map[string]string{"endpoint_id": string(epID)}); !ok || s.Value != 1 {
		t.Fatalf("up{endpoint_id=%s} = %+v, want 1", epID, s)
	}

	alertState := func(rule string) obs.AlertState {
		t.Helper()
		var out struct {
			Alerts []obs.Alert `json:"alerts"`
		}
		if err := json.Unmarshal([]byte(scrape("/debug/fleet")), &out); err != nil {
			t.Fatal(err)
		}
		for _, a := range out.Alerts {
			if a.Rule == rule && a.EndpointID == string(epID) {
				return a.State
			}
		}
		return obs.StateInactive
	}
	if st := alertState("heartbeat_staleness"); st != obs.StateInactive {
		t.Fatalf("staleness alert %s before the kill, want inactive", st)
	}

	// --- Phase 2: kill the agent, then strand a batch of tasks on it. ---
	// SuppressOfflineHeartbeat drops the agent's final offline report, so
	// from the service's perspective this is a crash: heartbeats just stop.
	// The agent dies first so the submitted tasks buffer on its queue with
	// no one to run them — the watchdog marks the endpoint offline and the
	// stranded tasks lease-expire into terminal failures, burning the error
	// budget. (Stopping after submitting races the two-worker engine, which
	// can drain all 30 identity tasks before the stop lands.)
	agent.Stop()
	for i := 20; i < 50; i++ {
		ids = append(ids, submit(i))
	}

	// The failure-rate check comes first: the lease-expiry burst only stays
	// inside the fast window for FastWindow after it lands, while staleness
	// keeps firing for as long as the agent is dead.
	waitFor(t, 15*time.Second, "failure-rate alert firing", func() bool {
		return alertState("terminal_failure_rate") == obs.StateFiring
	})
	waitFor(t, 15*time.Second, "staleness alert firing", func() bool {
		return alertState("heartbeat_staleness") == obs.StateFiring
	})
	// The dead endpoint federates as down.
	exp, err = obs.ParseExposition(strings.NewReader(scrape("/metrics/fleet")))
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := exp.Sample("gc_endpoint_up", map[string]string{"endpoint_id": string(epID)}); !ok || s.Value != 0 {
		t.Fatalf("up{endpoint_id=%s} = %+v after kill, want 0", epID, s)
	}

	// --- Phase 3: recovery. ---
	if _, err := tb.RestartEndpointAgent(epID, epOpts); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "staleness alert recovered", func() bool {
		return alertState("heartbeat_staleness") == obs.StateInactive
	})
	// Fresh successful traffic pushes the failure window back under budget.
	var recov []protocol.UUID
	for i := 50; i < 70; i++ {
		recov = append(recov, submit(i))
	}
	awaitTerminal(recov, 30*time.Second)
	waitFor(t, 15*time.Second, "failure-rate alert recovered", func() bool {
		return alertState("terminal_failure_rate") == obs.StateInactive
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, deadline time.Duration, what string, cond func() bool) {
	t.Helper()
	limit := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(limit) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
