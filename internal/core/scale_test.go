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

// TestManyEndpointsScale runs a small fleet — 16 endpoints, 400 tasks —
// through one service and broker, verifying no task is lost and the usage
// accounting matches.
func TestManyEndpointsScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tok, err := tb.IssueToken("scale@uchicago.edu", "uchicago")
	if err != nil {
		t.Fatal(err)
	}

	const endpoints = 16
	const tasksPer = 25
	epIDs := make([]protocol.UUID, endpoints)
	for i := range epIDs {
		id, err := tb.StartEndpoint(core.EndpointOptions{
			Name: fmt.Sprintf("scale-ep-%02d", i), Owner: "scale", Workers: 2, MaxBlocks: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		epIDs[i] = id
	}

	fnID, err := tb.Service.RegisterFunction("scale", protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
	if err != nil {
		t.Fatal(err)
	}

	// One batched submission per endpoint.
	var allIDs []protocol.UUID
	for _, ep := range epIDs {
		reqs := make([]webservice.SubmitRequest, tasksPer)
		for j := range reqs {
			payload, err := protocol.EncodePayload(protocol.PythonSpec{
				Entrypoint: "identity",
				Args:       []json.RawMessage{json.RawMessage(fmt.Sprintf("%d", j))},
			})
			if err != nil {
				t.Fatal(err)
			}
			reqs[j] = webservice.SubmitRequest{
				EndpointID: ep, FunctionID: fnID, Payload: payload,
			}
		}
		ids, err := tb.Service.Submit(tok, reqs)
		if err != nil {
			t.Fatal(err)
		}
		allIDs = append(allIDs, ids...)
	}

	// Every task reaches success.
	deadline := time.Now().Add(60 * time.Second)
	pending := make(map[protocol.UUID]bool, len(allIDs))
	for _, id := range allIDs {
		pending[id] = true
	}
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d tasks unfinished", len(pending), len(allIDs))
		}
		for id := range pending {
			st, err := tb.Service.GetTask(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State.Terminal() {
				if st.State != protocol.StateSuccess {
					t.Fatalf("task %s: %s (%s)", id, st.State, st.Error)
				}
				delete(pending, id)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	u := tb.Service.Usage()
	if u.Endpoints != endpoints || u.Tasks != endpoints*tasksPer {
		t.Errorf("usage = %+v", u)
	}
	if u.TasksByState[protocol.StateSuccess] != endpoints*tasksPer {
		t.Errorf("by-state = %v", u.TasksByState)
	}
}

// TestTestbedMiscSurfaces covers the small testbed helpers.
func TestTestbedMiscSurfaces(t *testing.T) {
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if s := tb.String(); s == "" {
		t.Error("empty String()")
	}
	// Batch-provider endpoints work too.
	epID, err := tb.StartEndpoint(core.EndpointOptions{
		Name: "batch-ep", Owner: "o", UseBatch: true, NodesPerBlock: 1, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tok, _ := tb.IssueToken("u@x.edu", "x")
	fnID, _ := tb.Service.RegisterFunction("o", protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
	payload, _ := protocol.EncodePayload(protocol.PythonSpec{
		Entrypoint: "identity",
		Args:       []json.RawMessage{json.RawMessage(`"batch"`)},
	})
	ids, err := tb.Service.Submit(tok, []webservice.SubmitRequest{
		{EndpointID: epID, FunctionID: fnID, Payload: payload},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := tb.Service.GetTask(ids[0])
		if st.State.Terminal() {
			if st.State != protocol.StateSuccess {
				t.Fatalf("state = %s", st.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch-provider task never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Double Close is safe.
	tb.Close()
}
