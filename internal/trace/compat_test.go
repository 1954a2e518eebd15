package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// The IDs of the W3C Trace Context specification's example traceparent.
const (
	w3cTraceHex = "0af7651916cd43dd8448eb211c80319c"
	w3cSpanHex  = "b7ad6b7169203331"
)

func w3cContext(t *testing.T) Context {
	t.Helper()
	tc := ParseContext(w3cTraceHex, w3cSpanHex)
	if !tc.Valid() || tc.TraceID.String() != w3cTraceHex || tc.SpanID.String() != w3cSpanHex {
		t.Fatalf("ParseContext(%s, %s) = %+v", w3cTraceHex, w3cSpanHex, tc)
	}
	return tc
}

// TestTraceCompat pins the text forms to what the string-ID encoding wrote
// (the literals below are that encoding's output for the same IDs), and
// that a malformed ID in JSON costs the context, not the decode.
func TestTraceCompat(t *testing.T) {
	tc := w3cContext(t)
	for _, c := range []struct {
		v    any
		want string
	}{
		{tc, `{"trace_id":"` + w3cTraceHex + `","span_id":"` + w3cSpanHex + `"}`},
		{Context{TraceID: tc.TraceID}, `{"trace_id":"` + w3cTraceHex + `"}`},
		{struct {
			Trace Context `json:"trace,omitzero"`
		}{}, `{}`},
	} {
		b, err := json.Marshal(c.v)
		if err != nil || string(b) != c.want {
			t.Errorf("json.Marshal(%+v) = %s, %v; want %s", c.v, b, err, c.want)
		}
	}

	// Span JSONL: one root span with a packed UUID attribute, one child
	// with a status and attributes JSON escapes.
	col := NewCollector(4)
	t0 := time.Unix(1700000000, 123456789)
	NewTracer("webservice", col).Record(Context{TraceID: tc.TraceID}, "submit", t0, t0.Add(1500*time.Microsecond),
		"endpoint", "6ba7b810-9dad-41d1-80b4-00c04fd430c8")
	sp := NewTracer("broker", col).StartSpanAt(tc, "broker.deliver", t0)
	sp.SetAttr("queue", "tasks.6ba7b810-9dad-41d1-80b4-00c04fd430c8")
	sp.SetAttr("x", "<&>")
	sp.EndStatus("error")
	spans := col.Snapshot()
	root, child := spans[0], spans[1]
	child.EndTime = t0.Add(time.Millisecond) // End stamps now; pin it
	stamp := func(d time.Duration) string { return t0.Add(d).Format(time.RFC3339Nano) }
	want := fmt.Sprintf(`{"trace_id":"%s","span_id":"%s","name":"submit","process":"webservice","start":"%s","end":"%s","attrs":{"endpoint":"6ba7b810-9dad-41d1-80b4-00c04fd430c8"}}`+"\n"+
		`{"trace_id":"%s","span_id":"%s","parent_span_id":"%s","name":"broker.deliver","process":"broker","start":"%s","end":"%s","status":"error","attrs":{"queue":"tasks.6ba7b810-9dad-41d1-80b4-00c04fd430c8","x":"\u003c\u0026\u003e"}}`+"\n",
		w3cTraceHex, root.SpanID, stamp(0), stamp(1500*time.Microsecond),
		w3cTraceHex, child.SpanID, w3cSpanHex, stamp(0), stamp(time.Millisecond))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range []Span{root, child} {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	if buf.String() != want {
		t.Errorf("span JSONL\n got %s\nwant %s", buf.String(), want)
	}
	back, err := readJSONL(strings.NewReader(want))
	if err != nil || len(back) != 2 || back[1].Parent != tc.SpanID || back[0].TraceID != tc.TraceID ||
		back[0].Attrs["endpoint"] != root.Attrs["endpoint"] || !back[0].Parent.IsZero() {
		t.Errorf("decode of the string-ID encoding: %v %+v", err, back)
	}

	// Malformed IDs in JSON: no context, no error.
	for _, in := range []string{
		`{"trace_id":"t1","span_id":"s1"}`,
		`{"trace_id":"` + w3cTraceHex + `","span_id":"s1"}`,
		`{"trace_id":"` + w3cTraceHex + `0"}`,
		`{"trace_id":"zz` + w3cTraceHex[2:] + `"}`,
		`{"span_id":"` + w3cSpanHex + `"}`,
		`{"trace_id":"00000000000000000000000000000000"}`,
		`null`,
	} {
		got := Context{TraceID: NewTraceID()}
		if err := json.Unmarshal([]byte(in), &got); err != nil || got.Valid() {
			t.Errorf("json.Unmarshal(%s) = %+v, %v; want no context, no error", in, got, err)
		}
	}
	var got Context
	if err := json.Unmarshal([]byte(`{"trace_id":"`+strings.ToUpper(w3cTraceHex)+`"}`), &got); err != nil || got.TraceID != tc.TraceID {
		t.Errorf("upper-case hex: %+v, %v", got, err)
	}
	if err := json.Unmarshal([]byte(`[1]`), &got); err == nil {
		t.Error("a trace that is not an object must stay a decode error")
	}
}

// TestSpanAllocs: a span costs no heap object — start, attributes (a UUID
// one included) and end, and a recorded stage.
func TestSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	tr := NewTracer("webservice", NewCollector(64))
	parent := Context{TraceID: NewTraceID(), SpanID: NewSpanID()}
	task := "6ba7b812-9dad-41d1-80b4-00c04fd430c8"
	now := time.Now()
	if n := testing.AllocsPerRun(200, func() {
		sp := tr.StartSpan(parent, "result.process")
		sp.SetAttr("task", task)
		sp.SetAttr("error", "non-terminal state")
		sp.End()
	}); n != 0 {
		t.Errorf("StartSpan+SetAttr+End allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		tr.Record(parent, "broker.deliver", now, now, "queue", "tasks.ep")
	}); n != 0 {
		t.Errorf("Record allocates %v times, want 0", n)
	}
	var none *Tracer
	if n := testing.AllocsPerRun(200, func() {
		sp := none.StartSpan(parent, "noop")
		sp.SetAttr("task", task)
		sp.End()
	}); n != 0 {
		t.Errorf("the no-op span allocates %v times, want 0", n)
	}
}

// TestAttrLimits: a key set twice keeps its last value, a fifth key is
// dropped, and only a canonical lower-case UUID is packed.
func TestAttrLimits(t *testing.T) {
	col := NewCollector(4)
	sp := NewTracer("p", col).StartSpan(Context{}, "s")
	upper := "6BA7B812-9DAD-41D1-80B4-00C04FD430C8"
	sp.SetAttr("a", "6ba7b812-9dad-41d1-80b4-00c04fd430c8")
	sp.SetAttr("a", upper)
	sp.SetAttr("b", "2")
	sp.SetAttr("c", "3")
	sp.SetAttr("d", "4")
	sp.SetAttr("e", "5")
	sp.End()
	got := col.Snapshot()[0].Attrs
	if len(got) != 4 || got["a"] != upper || got["d"] != "4" || got["e"] != "" {
		t.Errorf("attrs = %v", got)
	}
}

// readJSONL decodes spans written one JSON object per line.
func readJSONL(r io.Reader) ([]Span, error) {
	var out []Span
	for dec := json.NewDecoder(r); ; {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}
