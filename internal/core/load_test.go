package core_test

import (
	"testing"
	"time"

	"globuscompute/internal/core"
	"globuscompute/internal/sdk"
)

// TestHeartbeatCarriesLoad verifies the agent's utilization report reaches
// the service's endpoint record.
func TestHeartbeatCarriesLoad(t *testing.T) {
	s := newStack(t)
	epID, err := s.tb.StartEndpoint(core.EndpointOptions{Name: "load-ep", Owner: "alice@uchicago.edu", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ex := s.executor(t, epID)
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	for i := 0; i < 5; i++ {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.ResultWithin(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// The agent heartbeats every second on the testbed; wait for a load
	// report that reflects the completed tasks.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec, err := s.tb.Service.GetEndpoint(epID)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Load != nil && rec.Load.TasksReceived >= 5 {
			if rec.Load.TotalWorkers != 2 {
				t.Errorf("total workers = %d", rec.Load.TotalWorkers)
			}
			if rec.Load.ResultsPublished < 5 {
				t.Errorf("results published = %d", rec.Load.ResultsPublished)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("load never reported: %+v", rec.Load)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestMEPChildHeartbeatCarriesLoad verifies a user endpoint spawned by a
// multi-user endpoint reports load like any other endpoint, so replica
// placement and the backlog shed see it.
func TestMEPChildHeartbeatCarriesLoad(t *testing.T) {
	s := newStack(t)
	mepID, mgr, err := s.tb.StartMEP(core.MEPOptions{
		Name: "load-mep", Owner: "admin@uchicago.edu", Mapper: uchicagoMapper(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := s.executor(t, mepID)
	ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "load"}
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.ResultWithin(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	children := mgr.Children()
	if len(children) != 1 {
		t.Fatalf("children = %v, want one", children)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec, err := s.tb.Service.GetEndpoint(children[0])
		if err != nil {
			t.Fatal(err)
		}
		if rec.Load != nil && rec.Load.TasksReceived >= 1 {
			if age := rec.LoadAge(time.Now()); age < 0 || age > 5*time.Second {
				t.Errorf("load report age = %v, want fresh", age)
			}
			if rec.Load.TotalWorkers == 0 || rec.Load.EgressBacklog == nil {
				t.Errorf("load = %+v", rec.Load)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never reported load: %+v", rec.Load)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
