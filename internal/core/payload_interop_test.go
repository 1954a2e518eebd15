package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/endpoint"
	"globuscompute/internal/engine"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/sdk"
	"globuscompute/internal/webservice"
)

// TestJSONPythonPayloadSurvivesReplay: python payloads in the JSON
// PythonSpec form, which hand-written clients, older SDKs and task logs
// written before the binary envelope carry, still run. The tasks are
// admitted over REST to a durable deployment while their endpoint is
// offline, the deployment crashes and replays its logs, and only then does
// an endpoint come up and drain them, beside one task in the binary form.
func TestJSONPythonPayloadSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	open := func() *webservice.Stack {
		t.Helper()
		st, err := webservice.OpenStack(webservice.StackConfig{
			DataDir: dir, SnapshotEvery: -1,
			HTTPAddr: "127.0.0.1:0", BrokerAddr: "127.0.0.1:0", ObjectsAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	const user = "alice@uchicago.edu"
	tok, err := st.Auth.Issue(auth.Identity{Username: user, Provider: "uchicago"}, []string{auth.ScopeCompute}, time.Hour, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := st.Service.RegisterFunction(user, protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := st.Service.RegisterEndpoint(webservice.RegisterEndpointRequest{Name: "offline-hpc", Owner: user})
	if err != nil {
		t.Fatal(err)
	}

	// A curl-style JSON body whose payloads are JSON PythonSpecs.
	want := map[protocol.UUID]string{}
	jsonSpec := func(arg string) string {
		spec, err := protocol.EncodePayload(protocol.PythonSpec{Entrypoint: "identity", Args: []json.RawMessage{json.RawMessage(arg)}})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(spec) // []byte: base64, as a foreign client writes it
		return fmt.Sprintf(`{"endpoint_id":%q,"function_id":%q,"payload":%s}`, ep, fn, b)
	}
	req, err := http.NewRequest("POST", "http://"+st.HTTP.Addr()+"/v2/submit",
		strings.NewReader(`{"tasks":[`+jsonSpec(`"from-json"`)+`,`+jsonSpec(`[1,{"k":"v"}]`)+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+tok.Value)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		TaskIDs []protocol.UUID `json:"task_uuids"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(sub.TaskIDs) != 2 {
		t.Fatalf("JSON submit: %d %v %v", resp.StatusCode, sub.TaskIDs, err)
	}
	want[sub.TaskIDs[0]], want[sub.TaskIDs[1]] = `"from-json"`, `[1,{"k":"v"}]`

	// The SDK's binary body with a binary python payload, for contrast.
	ids, err := sdk.NewClient(st.HTTP.Addr(), tok.Value).SubmitBatch([]webservice.SubmitRequest{{
		EndpointID: ep, FunctionID: fn,
		Payload: protocol.EncodePythonSpec(protocol.PythonSpec{Entrypoint: "identity", Args: []json.RawMessage{json.RawMessage(`"from-binary"`)}}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	want[ids[0]] = `"from-binary"`

	// Crash: no shutdown snapshot, so the second life replays the WALs.
	st.HTTP.Close()
	st.Service.Close()
	st.BrokerSrv.Close()
	st.ObjectsSrv.Close()
	st.Broker.Close()
	_ = st.Durable.WAL().Close()
	_ = st.DurableBroker.WAL().Close()

	st2 := open()
	t.Cleanup(func() { st2.Close(context.Background()) })
	if d, _ := st2.Broker.Depth(webservice.TaskQueue(ep)); d != len(want) {
		t.Fatalf("replayed task queue holds %d tasks, want %d", d, len(want))
	}
	agent, err := endpoint.OpenStack(endpoint.StackConfig{
		EndpointID: ep,
		BrokerAddr: st2.BrokerSrv.Addr(),
		Engine:     engine.Config{Provider: provider.NewLocal(2), InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Stop)
	for id, out := range want {
		deadline := time.Now().Add(15 * time.Second)
		for {
			s, err := st2.Service.GetTask(id)
			if err != nil {
				t.Fatalf("task %s lost across the restart: %v", id, err)
			}
			if s.State.Terminal() {
				if s.State != protocol.StateSuccess || string(s.Result) != out {
					t.Errorf("task %s: %s %q %s, want %s", id, s.State, s.Result, s.Error, out)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("task %s never ran after the restart (state %s)", id, s.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
