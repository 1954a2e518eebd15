package obs

import (
	"math"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/statestore"
)

// Two load reports a second apart with 50 more results published must yield
// a ~50 tasks/s estimate; before the second report no rate is known.
func TestServiceRateFromLoadDeltas(t *testing.T) {
	f := NewFleetStore(FleetConfig{})
	t0 := time.Now()
	f.ObserveLoad("ep", statestore.EndpointLoad{ResultsPublished: 100}, t0)
	if _, ok := f.ServiceRate("ep"); ok {
		t.Fatal("service rate known after a single report")
	}
	f.ObserveLoad("ep", statestore.EndpointLoad{ResultsPublished: 150}, t0.Add(time.Second))
	rate, ok := f.ServiceRate("ep")
	if !ok {
		t.Fatal("service rate unknown after two reports")
	}
	if math.Abs(rate-50) > 0.01 {
		t.Fatalf("rate = %v, want ~50", rate)
	}
}

// The EWMA must smooth toward a changed rate rather than jumping, and a
// counter reset (agent restart) must count from zero instead of going
// negative.
func TestServiceRateSmoothingAndRestart(t *testing.T) {
	f := NewFleetStore(FleetConfig{})
	t0 := time.Now()
	f.ObserveLoad("ep", statestore.EndpointLoad{ResultsPublished: 0}, t0)
	f.ObserveLoad("ep", statestore.EndpointLoad{ResultsPublished: 100}, t0.Add(time.Second))
	// Rate drops to 0: one second at half-life 10s moves alpha ~6.7%.
	f.ObserveLoad("ep", statestore.EndpointLoad{ResultsPublished: 100}, t0.Add(2*time.Second))
	rate, _ := f.ServiceRate("ep")
	if rate >= 100 || rate < 80 {
		t.Fatalf("smoothed rate = %v, want in [80, 100)", rate)
	}
	// Restart: published falls to 10. The delta must be 10 (from zero), not
	// -90, so the estimate keeps decaying instead of going negative.
	f.ObserveLoad("ep", statestore.EndpointLoad{ResultsPublished: 10}, t0.Add(3*time.Second))
	rate, _ = f.ServiceRate("ep")
	if rate < 0 {
		t.Fatalf("rate went negative across restart: %v", rate)
	}
}

// Load reports with no metrics snapshot must still populate the health and
// federation views: pending/worker gauges via the ws_ fallback, cumulative
// counters, and the synthetic service-rate gauge.
func TestLoadReportOnlyEndpointVisible(t *testing.T) {
	f := NewFleetStore(FleetConfig{})
	t0 := time.Now()
	egress := 3
	lr := statestore.EndpointLoad{
		PendingTasks: 7, TotalWorkers: 4, FreeWorkers: 1,
		TasksReceived: 20, ResultsPublished: 10, EgressBacklog: &egress,
	}
	f.ObserveLoad("ep", lr, t0)
	f.Touch("ep", t0)
	lr.ResultsPublished = 30
	f.ObserveLoad("ep", lr, t0.Add(time.Second))
	f.Tick(t0.Add(time.Second))

	h := f.Health(t0.Add(time.Second))
	if len(h.Endpoints) != 1 {
		t.Fatalf("endpoints = %d, want 1", len(h.Endpoints))
	}
	eh := h.Endpoints[0]
	if eh.PendingTasks != 7 || eh.TotalWorkers != 4 || eh.FreeWorkers != 1 {
		t.Fatalf("gauges not populated from load report: %+v", eh)
	}
	if eh.EgressBacklog == nil || *eh.EgressBacklog != 3 {
		t.Fatalf("egress backlog not populated: %+v", eh.EgressBacklog)
	}
	if eh.TasksReceived != 20 || eh.ResultsPublished != 30 {
		t.Fatalf("cumulative counters not populated: %+v", eh)
	}
	if math.Abs(eh.ServiceRatePerS-20) > 0.01 {
		t.Fatalf("service rate = %v, want ~20", eh.ServiceRatePerS)
	}

	var sb strings.Builder
	if err := f.WriteFederation(&sb, t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("federation does not parse: %v", err)
	}
	if issues := exp.Lint(); len(issues) > 0 {
		t.Fatalf("federation lint: %v", issues)
	}
	s, ok := exp.Sample("gc_endpoint_service_rate_tasks_per_second", map[string]string{"endpoint_id": "ep"})
	if !ok {
		t.Fatalf("service-rate gauge missing from federation:\n%s", sb.String())
	}
	if math.Abs(s.Value-20) > 0.01 {
		t.Fatalf("federated service rate = %v, want ~20", s.Value)
	}
	if _, ok := exp.Sample("gc_endpoint_ws_pending_tasks", map[string]string{"endpoint_id": "ep"}); !ok {
		t.Fatal("ws_pending_tasks gauge missing from federation")
	}
}
