package webservice

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
)

func TestCancelPendingTask(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	// No agent: the task stays queued.
	ids, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte("{}")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.svc.CancelTask(f.token, ids[0]); err != nil {
		t.Fatal(err)
	}
	// The cancellation is recorded as a result: the store keeps its text.
	st, _ := f.svc.GetTask(ids[0])
	if st.State != protocol.StateCancelled || st.Error != "cancelled by user" {
		t.Errorf("state = %s, error = %q", st.State, st.Error)
	}
	// Cancelling again fails: already terminal.
	if err := f.svc.CancelTask(f.token, ids[0]); !errors.Is(err, statestore.ErrIllegalTransition) {
		t.Errorf("double cancel = %v", err)
	}
}

func TestCancelRequiresOwnership(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	ids, _ := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte("{}")}})
	other, _ := f.authS.Issue(auth.Identity{Username: "mallory@evil.example", Provider: "evil"},
		[]string{auth.ScopeCompute}, time.Hour, time.Time{})
	if err := f.svc.CancelTask(other, ids[0]); !errors.Is(err, auth.ErrPolicyDenied) {
		t.Errorf("foreign cancel = %v", err)
	}
}

func TestCancelStreamsToGroup(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	group := protocol.NewUUID()
	f.brk.Declare(GroupResultQueue(group))
	stream, err := f.brk.Consume(GroupResultQueue(group), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	ids, _ := f.svc.Submit(f.token, []SubmitRequest{{
		EndpointID: ep, FunctionID: fn, Payload: []byte("{}"), GroupID: group,
	}})
	if err := f.svc.CancelTask(f.token, ids[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-stream.Messages():
		var res protocol.Result
		json.Unmarshal(m.Body, &res)
		if res.State != protocol.StateCancelled || res.TaskID != ids[0] {
			t.Errorf("streamed %+v", res)
		}
		stream.Ack(m.Tag)
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation not streamed")
	}
}

func TestCancelLosesToCompletedResult(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	f.fakeAgent(t, ep)
	ids, _ := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte(`"x"`)}})
	waitTask(t, f.svc, ids[0], 5*time.Second)
	if err := f.svc.CancelTask(f.token, ids[0]); err == nil {
		t.Error("cancel of completed task succeeded")
	}
	st, _ := f.svc.GetTask(ids[0])
	if st.State != protocol.StateSuccess {
		t.Errorf("state overwritten to %s", st.State)
	}
}

func TestDuplicateResultIdempotent(t *testing.T) {
	// Redelivery can hand the result processor the same result twice; the
	// first terminal transition wins and the duplicate is dropped.
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	ids, _ := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte("{}")}})

	res := protocol.Result{TaskID: ids[0], State: protocol.StateSuccess, Output: []byte(`"first"`)}
	body, _ := json.Marshal(res)
	f.brk.Publish(ResultQueue(ep), body)
	dup := protocol.Result{TaskID: ids[0], State: protocol.StateFailed, Error: "duplicate"}
	dupBody, _ := json.Marshal(dup)
	f.brk.Publish(ResultQueue(ep), dupBody)

	st := waitTask(t, f.svc, ids[0], 5*time.Second)
	if st.State != protocol.StateSuccess || string(st.Result) != `"first"` {
		t.Errorf("status = %+v (duplicate overwrote the result)", st)
	}
	// Queue drained despite the duplicate being unprocessable.
	deadline := time.Now().Add(2 * time.Second)
	for {
		d, _ := f.brk.Depth(ResultQueue(ep))
		u, _ := f.brk.Unacked(ResultQueue(ep))
		if d == 0 && u == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("result queue not drained: depth=%d unacked=%d", d, u)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBatchStatus(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	f.fakeAgent(t, ep)
	ids, _ := f.svc.Submit(f.token, []SubmitRequest{
		{EndpointID: ep, FunctionID: fn, Payload: []byte(`1`)},
		{EndpointID: ep, FunctionID: fn, Payload: []byte(`2`)},
	})
	waitTask(t, f.svc, ids[0], 5*time.Second)
	waitTask(t, f.svc, ids[1], 5*time.Second)
	unknown := protocol.NewUUID()
	statuses := f.svc.GetTasks([]protocol.UUID{ids[0], unknown, ids[1]})
	if len(statuses) != 3 {
		t.Fatalf("statuses = %d", len(statuses))
	}
	if statuses[0].State != protocol.StateSuccess || statuses[2].State != protocol.StateSuccess {
		t.Errorf("states = %s, %s", statuses[0].State, statuses[2].State)
	}
	if statuses[1].Error == "" || statuses[1].State != "" {
		t.Errorf("unknown task status = %+v", statuses[1])
	}
}

func TestHeartbeatWatchdog(t *testing.T) {
	f := newFixture(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	stop := f.svc.StartWatchdog(WatchdogConfig{HeartbeatTimeout: 50 * time.Millisecond, Interval: 10 * time.Millisecond})
	defer stop()
	// Fresh heartbeat: stays online.
	time.Sleep(20 * time.Millisecond)
	rec, _ := f.svc.GetEndpoint(ep)
	if rec.Status != statestore.EndpointOnline {
		t.Fatalf("status = %s before timeout", rec.Status)
	}
	// Silence: the watchdog marks it offline.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec, _ = f.svc.GetEndpoint(ep)
		if rec.Status == statestore.EndpointOffline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("endpoint never marked offline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A new heartbeat brings it back.
	f.svc.SetEndpointStatus(ep, true)
	rec, _ = f.svc.GetEndpoint(ep)
	if rec.Status != statestore.EndpointOnline {
		t.Errorf("status = %s after heartbeat", rec.Status)
	}
	stop()
	stop() // idempotent
}
