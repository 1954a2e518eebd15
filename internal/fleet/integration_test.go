package fleet_test

import (
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/fleet"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/sdk"
)

// TestFastestRoutesToFasterEndpoint runs real tasks through two endpoints
// of very different capacity and checks the Delta-style policy learns to
// prefer the faster one.
func TestFastestRoutesToFasterEndpoint(t *testing.T) {
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tok, err := tb.IssueToken("fleet@uchicago.edu", "uchicago")
	if err != nil {
		t.Fatal(err)
	}
	client := sdk.NewClient(tb.ServiceAddr(), tok.Value)
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	objs := objectstore.NewClient(tb.ObjectsSrv.Addr())

	makeTarget := func(name string, workers int, watts float64) *fleet.Target {
		// MaxBlocks 1 pins capacity so the endpoints stay heterogeneous
		// (no elastic scale-out on the slow one).
		epID, err := tb.StartEndpoint(core.EndpointOptions{Name: name, Owner: "fleet", Workers: workers, MaxBlocks: 1})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
			Client: client, EndpointID: epID, Conn: bc, Objects: objs,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Close)
		return &fleet.Target{Name: name, Endpoint: epID, Executor: ex, PowerWatts: watts}
	}

	// The fast endpoint has 8 workers; the slow one a single worker, so
	// queueing inflates its observed time-to-result under load.
	fast := makeTarget("fast", 8, 400)
	slow := makeTarget("slow", 1, 50)
	sched, err := fleet.NewScheduler(fleet.Fastest, []*fleet.Target{fast, slow})
	if err != nil {
		t.Fatal(err)
	}

	sf := sdk.NewShellFunction("sleep 0.05")
	const rounds = 12
	for i := 0; i < rounds; i++ {
		// Keep both endpoints loaded: 4 concurrent submissions per round.
		var futs []*sdk.Future
		for j := 0; j < 4; j++ {
			fut, _, err := sched.SubmitShell(sf, nil)
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, fut)
		}
		for _, fut := range futs {
			if _, err := fut.ResultWithin(60 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	routed := sched.Routed()
	if routed["fast"] <= routed["slow"] {
		t.Errorf("routing did not favor the faster endpoint: %v", routed)
	}
	// Profiles exist for both targets (exploration happened).
	if sched.Profiler().Samples(sf.Command, "slow") == 0 {
		t.Error("slow endpoint never sampled")
	}
}
