package webservice

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/statestore"
)

func TestDashboardRequiresToken(t *testing.T) {
	h := newHTTPFixture(t)
	resp, err := http.Get("http://" + h.srv.Addr() + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no token: %d", resp.StatusCode)
	}
	resp, _ = h.do(t, "GET", "/dashboard?token=gc_bogus", "", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad token: %d", resp.StatusCode)
	}
}

func TestDashboardRenders(t *testing.T) {
	h := newHTTPFixture(t)
	fn := h.registerFunction(t)
	ep := h.registerEndpoint(t, RegisterEndpointRequest{Name: "render-me", Owner: "o"})
	h.svc.RecordHeartbeat(ep, true, &statestore.EndpointLoad{TotalWorkers: 4, FreeWorkers: 2, TasksReceived: 7}, nil)
	h.fakeAgent(t, ep)
	ids, _ := h.svc.Submit(h.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte(`"x"`)}})
	waitTask(t, h.svc, ids[0], 5*time.Second)

	resp, body := h.do(t, "GET", "/dashboard?token="+h.token.Value, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	html := string(body)
	for _, want := range []string{
		"render-me",         // fleet table
		"2/4",               // worker load
		"<th>success</th>",  // task state columns
		"register_endpoint", // audit trail
		"text/html",
	} {
		if want == "text/html" {
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
				t.Errorf("content type = %q", ct)
			}
			continue
		}
		if !strings.Contains(html, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}
