package webservice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/trace"
)

// TestTraceCompat: a REST submit's trace is the JSON the string-ID
// encoding wrote, and a malformed one costs the task its client context,
// not the request.
func TestTraceCompat(t *testing.T) {
	const (
		ep, fn = "6ba7b810-9dad-41d1-80b4-00c04fd430c8", "6ba7b811-9dad-41d1-80b4-00c04fd430c8"
		tid    = "0af7651916cd43dd8448eb211c80319c"
		sid    = "b7ad6b7169203331"
	)
	tc := trace.ParseContext(tid, sid)
	for _, c := range []struct {
		req  SubmitRequest
		want string
	}{
		{SubmitRequest{EndpointID: ep, FunctionID: fn, Trace: tc},
			`{"endpoint_id":"` + ep + `","function_id":"` + fn + `","resources":{},"trace":{"trace_id":"` + tid + `","span_id":"` + sid + `"}}`},
		{SubmitRequest{EndpointID: ep, FunctionID: fn},
			`{"endpoint_id":"` + ep + `","function_id":"` + fn + `","resources":{}}`},
	} {
		if b, err := json.Marshal(c.req); err != nil || string(b) != c.want {
			t.Errorf("json.Marshal = %s, %v\nwant %s", b, err, c.want)
		}
	}

	h := newHTTPFixture(t) // untraced: the client's context rides on as sent
	realFn := h.registerFunction(t)
	realEp := h.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	for _, c := range []struct {
		trace string
		want  trace.Context
	}{
		{`{"trace_id":"` + tid + `","span_id":"` + sid + `"}`, tc},
		{`{"trace_id":"t1","span_id":"s1"}`, trace.Context{}},
		{`{"trace_id":"` + tid + `","span_id":"not-hex!"}`, trace.Context{}},
	} {
		body := fmt.Sprintf(`{"tasks":[{"endpoint_id":%q,"function_id":%q,"payload":"YWJj","trace":%s}]}`, realEp, realFn, c.trace)
		resp, out := h.post(t, "/v2/submit", "", strings.NewReader(body))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("submit with trace %s: status %d (%s)", c.trace, resp.StatusCode, out)
			continue
		}
		var sub submitResponse
		if err := json.Unmarshal(out, &sub); err != nil || len(sub.TaskIDs) != 1 {
			t.Fatalf("submit response %s: %v", out, err)
		}
		rec, err := h.store.GetTask(sub.TaskIDs[0])
		if err != nil || rec.Task.Trace != c.want {
			t.Errorf("trace %s: stored %+v, %v; want %+v", c.trace, rec.Task.Trace, err, c.want)
		}
	}
}

// oldTraceList is the listing as it was written before it grouped one
// Snapshot: a TraceIDs pass, then a Trace scan of the ring per trace.
func oldTraceList(col *trace.Collector) string {
	var b bytes.Buffer
	ids := col.TraceIDs()
	fmt.Fprintf(&b, "%d traces retained (%d spans, %d total, %d dropped)\n\n",
		len(ids), col.Len(), col.Total(), col.Dropped())
	shown := 0
	for i := len(ids) - 1; i >= 0 && shown < 200; i-- {
		spans := col.Trace(ids[i])
		sum, err := trace.Analyze(spans)
		if err != nil {
			continue
		}
		names := make([]string, 0, len(spans))
		for _, sp := range spans {
			names = append(names, sp.Name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%s  %8s  %2d spans  [%s]\n",
			sum.TraceID, sum.Duration.Round(1000), len(spans), joinMax(names, 8))
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(&b, "no complete traces yet")
	}
	return b.String()
}

// TestDebugTraceListOneSnapshot: over a full ring — traces of one to four
// spans, some cut by the ring's overwrite, more than the 200 listed — the
// listing prints what the per-trace scans printed.
func TestDebugTraceListOneSnapshot(t *testing.T) {
	col := trace.NewCollector(1024)
	tr := trace.NewTracer("webservice", col)
	base := time.Now()
	for i := 0; i < 600; i++ {
		root := trace.Context{TraceID: trace.NewTraceID()}
		at := base.Add(time.Duration(i) * time.Millisecond)
		parent := tr.Record(root, "submit", at, at.Add(time.Millisecond), "endpoint", "6ba7b810-9dad-41d1-80b4-00c04fd430c8")
		for j := 0; j < i%4; j++ {
			at = at.Add(time.Duration(j+1) * 100 * time.Microsecond)
			parent = tr.Record(parent, "stage"+strconv.Itoa(j), at, at.Add(50*time.Microsecond), "queue", "tasks.x")
		}
	}
	if col.Dropped() == 0 || col.Len() != 1024 {
		t.Fatalf("ring not full: %d retained, %d dropped", col.Len(), col.Dropped())
	}
	var got bytes.Buffer
	writeTraceList(&got, col)
	want := oldTraceList(col)
	if got.String() != want {
		t.Errorf("listing differs\n got %s\nwant %s", got.String(), want)
	}
	if n := strings.Count(got.String(), " spans  ["); n != 200 {
		t.Errorf("%d traces listed, want the 200 most recent", n)
	}
}

var traceRingLine = regexp.MustCompile(`(?m)^(gc_trace_spans_total|gc_trace_spans_dropped_total|gc_trace_ring_window_seconds) (\S+)$`)

// TestTraceRingMetrics: /metrics exports the span ring's reach, with
// monotone counters and a window that spans the retained history.
func TestTraceRingMetrics(t *testing.T) {
	h, col := newTracedHTTPFixture(t)
	scrape := func() map[string]float64 {
		t.Helper()
		resp, body := h.do(t, "GET", "/metrics?token="+h.token.Value, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		for _, name := range []string{"# TYPE gc_trace_spans_total counter", "# TYPE gc_trace_spans_dropped_total counter",
			"# TYPE gc_trace_ring_window_seconds gauge"} {
			if !bytes.Contains(body, []byte(name)) {
				t.Errorf("metrics lack %q", name)
			}
		}
		out := map[string]float64{}
		for _, m := range traceRingLine.FindAllSubmatch(body, -1) {
			v, err := strconv.ParseFloat(string(m[2]), 64)
			if err != nil {
				t.Fatalf("%s: %v", m[0], err)
			}
			out[string(m[1])] = v
		}
		if len(out) != 3 {
			t.Fatalf("trace ring series %v", out)
		}
		return out
	}
	before := scrape()
	runTracedTask(t, h, col)
	tr := trace.NewTracer("test", col)
	old := time.Now().Add(-time.Minute)
	for i := 0; i < 300; i++ { // past the fixture ring's 256: drops
		tr.Record(trace.Context{}, "fill", old, old)
	}
	after := scrape()
	if after["gc_trace_spans_total"] < before["gc_trace_spans_total"]+300 ||
		after["gc_trace_spans_dropped_total"] < before["gc_trace_spans_dropped_total"] ||
		after["gc_trace_spans_dropped_total"] == 0 {
		t.Errorf("counters before %v, after %v", before, after)
	}
	if w := after["gc_trace_ring_window_seconds"]; w < 59 || w > 3600 {
		t.Errorf("ring window %vs, want about a minute", w)
	}
	again := scrape()
	if again["gc_trace_spans_total"] < after["gc_trace_spans_total"] ||
		again["gc_trace_spans_dropped_total"] < after["gc_trace_spans_dropped_total"] {
		t.Errorf("counters went back: %v then %v", after, again)
	}
}

// TestDebugLogsJoinTrace: a log record the result processor writes under a
// delivery's trace is found by /debug/logs?trace_id= with the trace's hex ID.
func TestDebugLogsJoinTrace(t *testing.T) {
	h, col := newTracedHTTPFixture(t)
	ep := h.registerEndpoint(t, RegisterEndpointRequest{Name: "logs", Owner: "o"})
	tc := trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	// A non-terminal result is dropped with a warning carrying the trace.
	body := protocol.EncodeResult(&protocol.Result{TaskID: protocol.NewUUID(), State: protocol.StateRunning, Trace: tc})
	if err := h.brk.PublishBatch(ResultQueue(ep), [][]byte{body}, []trace.Context{tc}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, out := h.do(t, "GET", "/debug/logs?trace_id="+tc.TraceID.String()+"&token="+h.token.Value, "", nil)
		if bytes.Contains(out, []byte("dropping unprocessable result")) && bytes.Contains(out, []byte(tc.TraceID.String())) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no log record joined on trace %s: %s", tc.TraceID, out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(col.Trace(tc.TraceID)) == 0 {
		t.Error("the dropped result's spans are not in its trace")
	}
}
