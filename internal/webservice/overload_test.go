package webservice

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/statestore"
)

// newOverloadFixture is newFixture with overload-protection config applied
// before construction.
func newOverloadFixture(t *testing.T, mod func(*Config)) *fixture {
	t.Helper()
	f := &fixture{
		store: statestore.New(),
		brk:   broker.New(),
		objs:  objectstore.New(),
		authS: auth.NewService(),
	}
	cfg := Config{Store: f.store, Broker: f.brk, Objects: f.objs, Auth: f.authS}
	if mod != nil {
		mod(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.svc = svc
	tok, err := f.authS.Issue(
		auth.Identity{Username: "alice@uchicago.edu", Provider: "uchicago"},
		[]string{auth.ScopeCompute, auth.ScopeManage}, time.Hour, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	f.token = tok
	t.Cleanup(func() {
		f.svc.Close()
		f.brk.Close()
	})
	return f
}

func TestSubmitIdempotencyKey(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "ep", Owner: "alice@uchicago.edu"})

	req := []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte(`1`)}}
	ids1, err := f.svc.SubmitBatch(f.token, req, SubmitOptions{IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	// A retry with the same key returns the original IDs and creates nothing.
	before := f.store.CountTasks()
	ids2, err := f.svc.SubmitBatch(f.token, req, SubmitOptions{IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids2) != 1 || ids2[0] != ids1[0] {
		t.Fatalf("replay ids = %v, want %v", ids2, ids1)
	}
	if after := f.store.CountTasks(); after != before {
		t.Fatalf("replay created tasks: %d -> %d", before, after)
	}
	// A different key mints fresh tasks.
	ids3, err := f.svc.SubmitBatch(f.token, req, SubmitOptions{IdempotencyKey: "retry-2"})
	if err != nil {
		t.Fatal(err)
	}
	if ids3[0] == ids1[0] {
		t.Fatal("distinct keys shared task IDs")
	}
}

func TestSubmitIdempotencyConcurrentRetries(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "ep", Owner: "alice@uchicago.edu"})
	req := []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte(`1`)}}

	const retries = 8
	got := make(chan protocol.UUID, retries)
	for i := 0; i < retries; i++ {
		go func() {
			ids, err := f.svc.SubmitBatch(f.token, req, SubmitOptions{IdempotencyKey: "race"})
			if err != nil || len(ids) != 1 {
				got <- ""
				return
			}
			got <- ids[0]
		}()
	}
	first := <-got
	if first == "" {
		t.Fatal("submit failed")
	}
	for i := 1; i < retries; i++ {
		if id := <-got; id != first {
			t.Fatalf("racing retries minted different IDs: %s vs %s", id, first)
		}
	}
	if n := f.store.CountTasks(); n != 1 {
		t.Fatalf("task count = %d, want 1", n)
	}
}

func TestSubmitAdmissionRateShed(t *testing.T) {
	now := time.Unix(0, 0)
	adm := scheduler.NewAdmission(scheduler.AdmissionConfig{
		FillRate: 1, Burst: 2, MaxInFlight: -1,
		Now: func() time.Time { return now },
	})
	f := newOverloadFixture(t, func(c *Config) { c.Admission = adm })
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "ep", Owner: "alice@uchicago.edu"})
	req := []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte(`1`)}}

	for i := 0; i < 2; i++ {
		if _, err := f.svc.Submit(f.token, req); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	_, err := f.svc.Submit(f.token, req)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-burst err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err %T does not carry OverloadError", err)
	}
	if oe.Status != 429 {
		t.Errorf("status = %d, want 429", oe.Status)
	}
	if oe.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %s, want >= 1s", oe.RetryAfter)
	}
	// Tokens refill with time: the same tenant is admitted again later.
	now = now.Add(5 * time.Second)
	if _, err := f.svc.Submit(f.token, req); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}
}

func TestSubmitInFlightReleasedOnResult(t *testing.T) {
	adm := scheduler.NewAdmission(scheduler.AdmissionConfig{
		FillRate: 1000, Burst: 1000, MaxInFlight: 2,
	})
	f := newOverloadFixture(t, func(c *Config) { c.Admission = adm })
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "ep", Owner: "alice@uchicago.edu"})
	req := []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte(`1`)}}

	// Fill the in-flight cap with no agent attached.
	ids := make([]protocol.UUID, 0, 2)
	for i := 0; i < 2; i++ {
		out, err := f.svc.Submit(f.token, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, out...)
	}
	if _, err := f.svc.Submit(f.token, req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over in-flight cap err = %v, want ErrOverloaded", err)
	}
	// Completing the tasks releases the slots.
	f.fakeAgent(t, ep)
	for _, id := range ids {
		waitTask(t, f.svc, id, 5*time.Second)
	}
	deadline := time.Now().Add(5 * time.Second)
	for adm.InFlight("alice@uchicago.edu") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d, want 0", adm.InFlight("alice@uchicago.edu"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := f.svc.Submit(f.token, req); err != nil {
		t.Fatalf("submit after release: %v", err)
	}
}

func TestSubmitBacklogShed(t *testing.T) {
	f := newOverloadFixture(t, func(c *Config) { c.BacklogShedThreshold = 10 })
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "ep", Owner: "alice@uchicago.edu"})
	req := []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte(`1`)}}

	backlog := 12
	if err := f.svc.RecordHeartbeat(ep, true, &statestore.EndpointLoad{EgressBacklog: &backlog}, nil); err != nil {
		t.Fatal(err)
	}
	_, err := f.svc.Submit(f.token, req)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Status != 503 {
		t.Fatalf("batch submit err = %v, want 503 OverloadError", err)
	}
	// Interactive traffic tolerates twice the threshold.
	if _, err := f.svc.SubmitBatch(f.token, req, SubmitOptions{Interactive: true}); err != nil {
		t.Fatalf("interactive under 2x threshold: %v", err)
	}
	backlog = 25
	if err := f.svc.RecordHeartbeat(ep, true, &statestore.EndpointLoad{EgressBacklog: &backlog}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.SubmitBatch(f.token, req, SubmitOptions{Interactive: true}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("interactive over 2x threshold err = %v", err)
	}
	// An endpoint that has never reported a backlog is never shed.
	ep2 := f.registerEndpoint(t, RegisterEndpointRequest{Name: "ep2", Owner: "alice@uchicago.edu"})
	if _, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep2, FunctionID: fn, Payload: []byte(`1`)}}); err != nil {
		t.Fatalf("no-backlog endpoint shed: %v", err)
	}
}

func TestSubmitQueueFullShedsAndFailsTasks(t *testing.T) {
	f := newOverloadFixture(t, func(c *Config) { c.QueueLimit = 5 })
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "ep", Owner: "alice@uchicago.edu"})
	req := []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte(`1`)}}

	// No consumer: the queue fills to the batch watermark (80% of 5 = 4).
	for i := 0; i < 4; i++ {
		if _, err := f.svc.Submit(f.token, req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ids, err := f.svc.Submit(f.token, req)
	if err == nil {
		t.Fatalf("expected shed, got ids %v", ids)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Status != 503 {
		t.Fatalf("err = %v, want 503 OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Error("queue-full shed missing Retry-After")
	}
	// The shed batch's tasks reached a terminal state (Failed), not limbo.
	byState := f.store.CountTasksByState()
	if byState[protocol.StateFailed] != 1 {
		t.Fatalf("failed tasks = %d, want 1 (states: %v)", byState[protocol.StateFailed], byState)
	}
	// Interactive priority still clears the watermark up to the hard limit.
	if _, err := f.svc.SubmitBatch(f.token, req, SubmitOptions{Interactive: true}); err != nil {
		t.Fatalf("interactive above watermark: %v", err)
	}
	// Shed metrics registered under the overload registry.
	snap := f.svc.Overload.TakeSnapshot()
	if snap.Counters["shed"] == 0 {
		t.Error("gc_shed_total not incremented")
	}
	if snap.Counters["queue_shed"] == 0 {
		t.Error("queue_shed not incremented")
	}
}

func TestOverloadHTTPResponse(t *testing.T) {
	err := error(&OverloadError{Status: 429, RetryAfter: 1500 * time.Millisecond, Reason: "admission rate"})
	if got := statusFor(err); got != 429 {
		t.Fatalf("statusFor = %d, want 429", got)
	}
	rr := httptest.NewRecorder()
	writeError(rr, statusFor(err), err)
	if rr.Code != 429 {
		t.Fatalf("code = %d", rr.Code)
	}
	// 1.5s rounds up to 2 whole seconds.
	if h := rr.Header().Get("Retry-After"); h != "2" {
		t.Fatalf("Retry-After = %q, want 2", h)
	}
	// Non-overload errors carry no Retry-After.
	rr2 := httptest.NewRecorder()
	writeError(rr2, 400, errors.New("bad"))
	if h := rr2.Header().Get("Retry-After"); h != "" {
		t.Fatalf("unexpected Retry-After %q", h)
	}
}
