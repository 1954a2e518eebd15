package webservice

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
)

// TestResultProcessorRecordsJSONBody: a JSON result body on an endpoint's
// results queue, as a data dir written before binary bodies may replay onto
// it, is recorded, and its submitter's group stream gets a binary body.
func TestResultProcessorRecordsJSONBody(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	group, ids := submitGrouped(t, f, ep, fn, 1)
	stream, err := f.brk.Consume(GroupResultQueue(group), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	body, err := json.Marshal(protocol.Result{TaskID: ids[0], State: protocol.StateSuccess, Output: []byte(`7`), EndpointID: ep})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.brk.Publish(ResultQueue(ep), body); err != nil {
		t.Fatal(err)
	}
	if st := waitTask(t, f.svc, ids[0], 5*time.Second); st.State != protocol.StateSuccess || string(st.Result) != "7" {
		t.Fatalf("status %+v", st)
	}
	select {
	case m := <-stream.Messages():
		stream.Ack(m.Tag)
		if m.Body[0] == '{' {
			t.Errorf("group stream carries JSON: %s", m.Body)
		}
		if res, err := protocol.DecodeResult(m.Body); err != nil || res.TaskID != ids[0] || string(res.Output) != "7" {
			t.Errorf("streamed %+v, %v", res, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("result not streamed")
	}
}

// TestSubmitBatchMixedLookups: a batch mixing two functions and two
// endpoints, one of which allows only the first function. The function and
// endpoint records are looked up once per run of equal IDs; every task still
// gets its own function's kind and its own endpoint, and the allow-list and
// not-found checks fail the batch at the same task as a per-task lookup
// would.
func TestSubmitBatchMixedLookups(t *testing.T) {
	f := newFixture(t)
	py := f.registerFunction(t)
	sh, err := f.svc.RegisterFunction("alice@uchicago.edu", protocol.KindShell, []byte(`{"command_template":"true"}`))
	if err != nil {
		t.Fatal(err)
	}
	open := f.registerEndpoint(t, RegisterEndpointRequest{Name: "open", Owner: "o"})
	strict := f.registerEndpoint(t, RegisterEndpointRequest{Name: "strict", Owner: "o", AllowedFunctions: []protocol.UUID{py}})
	kinds := map[protocol.UUID]protocol.FunctionKind{py: protocol.KindPython, sh: protocol.KindShell}
	req := func(ep, fn protocol.UUID) SubmitRequest {
		return SubmitRequest{EndpointID: ep, FunctionID: fn, Payload: []byte(`{}`)}
	}

	ok := []SubmitRequest{req(open, py), req(open, sh), req(strict, py), req(strict, py), req(open, sh), req(open, py), req(strict, py)}
	ids, err := f.svc.Submit(f.token, ok)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		rec, err := f.store.GetTask(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Task.EndpointID != ok[i].EndpointID || rec.Task.FunctionID != ok[i].FunctionID || rec.Task.Kind != kinds[ok[i].FunctionID] {
			t.Errorf("task %d: endpoint %s function %s kind %s, want %s %s %s", i,
				rec.Task.EndpointID, rec.Task.FunctionID, rec.Task.Kind, ok[i].EndpointID, ok[i].FunctionID, kinds[ok[i].FunctionID])
		}
	}

	for _, tc := range []struct {
		batch []SubmitRequest
		at    int
		want  error
	}{
		{[]SubmitRequest{req(open, py), req(open, sh), req(strict, py), req(strict, sh)}, 3, ErrFunctionNotAllowed},
		{[]SubmitRequest{req(strict, py), req(strict, sh), req(strict, py)}, 1, ErrFunctionNotAllowed},
		{[]SubmitRequest{req(strict, sh), req(open, sh)}, 0, ErrFunctionNotAllowed},
		{[]SubmitRequest{req(open, py), req(open, protocol.NewUUID()), req(open, py)}, 1, statestore.ErrNotFound},
		{[]SubmitRequest{req(open, py), req(protocol.NewUUID(), py), req(open, py)}, 1, statestore.ErrNotFound},
	} {
		before := f.store.CountTasks()
		_, err := f.svc.Submit(f.token, tc.batch)
		if !errors.Is(err, tc.want) || !strings.HasPrefix(err.Error(), fmt.Sprintf("task %d:", tc.at)) {
			t.Errorf("batch %v: err = %v, want %v at task %d", tc.batch, err, tc.want, tc.at)
		}
		if n := f.store.CountTasks(); n != before {
			t.Errorf("a refused batch admitted %d tasks", n-before)
		}
	}
}
