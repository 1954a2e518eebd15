package webservice

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/protocol"
	"globuscompute/internal/serialize"
	"globuscompute/internal/statestore"
)

// httpFixture adds a REST server to the core fixture.
type httpFixture struct {
	*fixture
	srv *Server
}

func newHTTPFixture(t *testing.T) *httpFixture {
	t.Helper()
	f := newFixture(t)
	srv, err := ServeHTTP(f.svc, "127.0.0.1:0", "broker:0", "objects:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &httpFixture{fixture: f, srv: srv}
}

func (h *httpFixture) do(t *testing.T, method, path, token string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, "http://"+h.srv.Addr()+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func TestHTTPAuthRequired(t *testing.T) {
	h := newHTTPFixture(t)
	resp, _ := h.do(t, "POST", "/v2/functions", "", registerFunctionRequest{Kind: protocol.KindPython, Definition: []byte("x")})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no token: %d", resp.StatusCode)
	}
	resp, _ = h.do(t, "POST", "/v2/functions", "gc_bogus", registerFunctionRequest{Kind: protocol.KindPython, Definition: []byte("x")})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad token: %d", resp.StatusCode)
	}
}

func TestHTTPFunctionLifecycle(t *testing.T) {
	h := newHTTPFixture(t)
	resp, body := h.do(t, "POST", "/v2/functions", h.token.Value,
		registerFunctionRequest{Kind: protocol.KindPython, Definition: []byte(`{"entrypoint":"identity"}`)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var reg registerFunctionResponse
	json.Unmarshal(body, &reg)
	if !reg.FunctionID.Valid() {
		t.Fatalf("function id %q", reg.FunctionID)
	}
	resp, body = h.do(t, "GET", "/v2/functions/"+string(reg.FunctionID), h.token.Value, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d", resp.StatusCode)
	}
	resp, _ = h.do(t, "GET", "/v2/functions/"+string(protocol.NewUUID()), h.token.Value, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing function: %d", resp.StatusCode)
	}
}

func TestHTTPEndpointAndSubmitFlow(t *testing.T) {
	h := newHTTPFixture(t)
	// Register function.
	_, body := h.do(t, "POST", "/v2/functions", h.token.Value,
		registerFunctionRequest{Kind: protocol.KindPython, Definition: []byte(`{"entrypoint":"identity"}`)})
	var reg registerFunctionResponse
	json.Unmarshal(body, &reg)

	// Register endpoint.
	resp, body := h.do(t, "POST", "/v2/endpoints", h.token.Value,
		RegisterEndpointRequest{Name: "laptop"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register endpoint: %d %s", resp.StatusCode, body)
	}
	var epResp RegisterEndpointResponse
	json.Unmarshal(body, &epResp)
	if epResp.BrokerAddr != "broker:0" || epResp.TaskQueue == "" {
		t.Errorf("resp = %+v", epResp)
	}

	// Heartbeat online.
	resp, _ = h.do(t, "POST", "/v2/endpoints/"+string(epResp.EndpointID)+"/heartbeat", h.token.Value, heartbeatRequest{Online: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: %d", resp.StatusCode)
	}

	// Fake agent behind the queues.
	h.fakeAgent(t, epResp.EndpointID)

	// Submit a batch of 3.
	var tasks []SubmitRequest
	for i := 0; i < 3; i++ {
		tasks = append(tasks, SubmitRequest{
			EndpointID: epResp.EndpointID, FunctionID: reg.FunctionID,
			Payload: []byte(fmt.Sprintf("%d", i)),
		})
	}
	resp, body = h.do(t, "POST", "/v2/submit", h.token.Value, submitRequest{Tasks: tasks})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub submitResponse
	json.Unmarshal(body, &sub)
	if len(sub.TaskIDs) != 3 {
		t.Fatalf("task ids = %v", sub.TaskIDs)
	}

	// Poll until success.
	for _, id := range sub.TaskIDs {
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, body = h.do(t, "GET", "/v2/tasks/"+string(id), h.token.Value, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("get task: %d", resp.StatusCode)
			}
			var st TaskStatus
			json.Unmarshal(body, &st)
			if st.State.Terminal() {
				if st.State != protocol.StateSuccess {
					t.Errorf("task %s: %s %s", id, st.State, st.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("task %s never finished", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Usage endpoint.
	resp, body = h.do(t, "GET", "/v2/usage", h.token.Value, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("usage: %d", resp.StatusCode)
	}
	var usage UsageStats
	json.Unmarshal(body, &usage)
	if usage.Tasks != 3 || usage.Endpoints != 1 {
		t.Errorf("usage = %+v", usage)
	}
}

func TestHTTPMultiUserNeedsManageScope(t *testing.T) {
	h := newHTTPFixture(t)
	limited, _ := h.authS.Issue(auth.Identity{Username: "user@site.edu", Provider: "site"},
		[]string{auth.ScopeCompute}, time.Hour, time.Time{})
	resp, _ := h.do(t, "POST", "/v2/endpoints", limited.Value, RegisterEndpointRequest{Name: "mep", MultiUser: true})
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("mep without manage scope: %d", resp.StatusCode)
	}
	resp, _ = h.do(t, "POST", "/v2/endpoints", h.token.Value, RegisterEndpointRequest{Name: "mep", MultiUser: true})
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("mep with manage scope: %d", resp.StatusCode)
	}
}

// TestHTTPRegisterRefusesUnknownPolicy registers an endpoint naming an auth
// policy the auth service does not know: 400, and no endpoint record.
func TestHTTPRegisterRefusesUnknownPolicy(t *testing.T) {
	h := newHTTPFixture(t)
	resp, body := h.do(t, "POST", "/v2/endpoints", h.token.Value, RegisterEndpointRequest{Name: "locked", AuthPolicy: "no-such-policy"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown policy: %d %s, want 400", resp.StatusCode, body)
	}
	if eps := h.store.ListEndpoints(statestore.EndpointFilter{}); len(eps) != 0 {
		t.Errorf("refused registration wrote %d endpoint records", len(eps))
	}
}

// post sends body as is under contentType (none when empty).
func (h *httpFixture) post(t *testing.T, path, contentType string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", "http://"+h.srv.Addr()+path, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+h.token.Value)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestHTTPBadBodies: every route refuses a body that is not exactly one
// JSON value, and the submit route refuses each way a binary body can be
// malformed. Each body is a valid request but for the one defect its case
// names, and the two valid cases show it.
func TestHTTPBadBodies(t *testing.T) {
	h := newHTTPFixture(t)
	fn := h.registerFunction(t)
	ep := h.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	task := fmt.Sprintf(`{"endpoint_id":%q,"function_id":%q}`, ep, fn)
	one := SubmitRequest{EndpointID: ep, FunctionID: fn, Payload: []byte("abc")}
	valid := EncodeSubmitBody([]SubmitRequest{one}, SubmitOptions{})
	header, _, ok := splitSubmitBody(valid)
	if !ok {
		t.Fatal("the valid body does not split")
	}
	twoHeader, _, _ := splitSubmitBody(EncodeSubmitBody([]SubmitRequest{one, one}, SubmitOptions{}))
	frame := func(header []byte, sections ...string) string {
		b := binary.AppendUvarint(nil, uint64(len(header)))
		b = append(b, header...)
		for _, s := range sections {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
		return string(b)
	}
	// The valid header is str("") ‖ priority ‖ uvarint(1) ‖ the record, whose
	// presence byte comes first.
	const countAt, presenceAt = 2, 3
	edit := func(at int, b byte) []byte {
		h := bytes.Clone(header)
		h[at] = b
		return h
	}
	// The second task spells out the first one's endpoint ID instead of
	// marking it the same.
	spelled := append(edit(countAt, 2), presSameFunction)
	spelled = append(spelled, header[presenceAt+1:presenceAt+1+17]...)
	jsonSubmit := `{"tasks":[` + task[:len(task)-1] + `,"payload":"YWJj"}]}`
	for _, c := range []struct {
		name, path, contentType, body string
		want                          int
	}{
		{"JSON submit", "/v2/submit", "", jsonSubmit, http.StatusOK},
		{"binary submit", "/v2/submit", SubmitContentType, string(valid), http.StatusOK},
		{"malformed JSON", "/v2/submit", "", "{nope", http.StatusBadRequest},
		{"submit, data after the value", "/v2/submit", "application/json", jsonSubmit + " garbage", http.StatusBadRequest},
		{"function, a second value", "/v2/functions", "", `{"kind":"python","definition":"eA=="} {}`, http.StatusBadRequest},
		{"batch_status, a stray bracket", "/v2/tasks/batch_status", "", `{"task_ids":[]}]`, http.StatusBadRequest},
		{"routing group, a number after", "/v2/routing_groups", "", fmt.Sprintf(`{"name":"g","members":[%q]} 1`, ep), http.StatusBadRequest},
		{"trailing whitespace is fine", "/v2/tasks/batch_status", "", "{\"task_ids\":[]}\n\t ", http.StatusOK},
		{"binary, v=1", "/v2/submit", submitMediaType + "; v=1", string(valid), http.StatusUnsupportedMediaType},
		{"binary, no version", "/v2/submit", submitMediaType, string(valid), http.StatusUnsupportedMediaType},
		{"binary, truncated header", "/v2/submit", SubmitContentType, frame(header[:len(header)-1], "abc"), http.StatusBadRequest},
		{"binary, truncated section", "/v2/submit", SubmitContentType, string(valid[:len(valid)-1]), http.StatusBadRequest},
		{"binary, count larger than the body can hold", "/v2/submit", SubmitContentType, frame(edit(countAt, 5), "abc"), http.StatusBadRequest},
		{"binary, unknown presence bits", "/v2/submit", SubmitContentType, frame(edit(presenceAt, 0x80), "abc"), http.StatusBadRequest},
		{"binary, repeated ID not marked the same", "/v2/submit", SubmitContentType, frame(spelled, "abc", "abc"), http.StatusBadRequest},
		{"binary, byte after the last record", "/v2/submit", SubmitContentType, frame(append(bytes.Clone(header), 0), "abc"), http.StatusBadRequest},
		{"binary, fewer sections than tasks", "/v2/submit", SubmitContentType, frame(twoHeader, "abc"), http.StatusBadRequest},
		{"binary, more sections than tasks", "/v2/submit", SubmitContentType, frame(header, "abc", "x"), http.StatusBadRequest},
		{"binary, trailing byte", "/v2/submit", SubmitContentType, string(valid) + "\x00", http.StatusBadRequest},
		{"binary, overlong section length", "/v2/submit", SubmitContentType, frame(header) + "\x83\x00abc", http.StatusBadRequest},
	} {
		resp, body := h.post(t, c.path, c.contentType, strings.NewReader(c.body))
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
		if c.want == http.StatusUnsupportedMediaType && !strings.Contains(string(body), "v=2") {
			t.Errorf("%s: the refusal %s does not name v=2", c.name, body)
		}
	}
}

// TestHTTPOversizeIs413: a payload over the service limit, or a body over
// the read cap, is "too large" (413) in either body form, not a malformed
// request, so a client can tell it to pass the data by reference instead.
func TestHTTPOversizeIs413(t *testing.T) {
	h := newHTTPFixture(t)
	fn := h.registerFunction(t)
	ep := h.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	big := []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: make([]byte, serialize.MaxPayload+1)}}
	asJSON, err := json.Marshal(submitRequest{Tasks: big})
	if err != nil {
		t.Fatal(err)
	}
	asBinary := EncodeSubmitBody(big, SubmitOptions{})
	// Bodies over the 64 MiB cap, streamed so neither side holds them; all
	// but the last are sent chunked, with no length announced.
	spaces := func() io.Reader { return io.LimitReader(spaceReader{}, maxBodyBytes+1) }
	header := binary.AppendUvarint(nil, maxBodyBytes+1)
	for _, c := range []struct {
		name, contentType string
		body              io.Reader
		announce          int64 // Content-Length to send for a streamed body
	}{
		{"JSON payload", "", bytes.NewReader(asJSON), 0},
		{"binary payload", SubmitContentType, bytes.NewReader(asBinary), 0},
		{"JSON body over the cap", "", io.MultiReader(strings.NewReader(`{"tasks":`), spaces()), 0},
		{"binary body over the cap", SubmitContentType, io.MultiReader(bytes.NewReader(header), spaces()), 0},
		{"binary body announced over the cap", SubmitContentType, spaces(), maxBodyBytes + 1},
	} {
		req, err := http.NewRequest("POST", "http://"+h.srv.Addr()+"/v2/submit", c.body)
		if err != nil {
			t.Fatal(err)
		}
		if c.announce > 0 {
			req.ContentLength = c.announce
		}
		req.Header.Set("Authorization", "Bearer "+h.token.Value)
		if c.contentType != "" {
			req.Header.Set("Content-Type", c.contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (%s), want 413", c.name, resp.StatusCode, msg)
		}
	}
}

// spaceReader yields JSON whitespace forever.
type spaceReader struct{}

func (spaceReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestHTTPHealthz(t *testing.T) {
	h := newHTTPFixture(t)
	resp, err := http.Get("http://" + h.srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}
