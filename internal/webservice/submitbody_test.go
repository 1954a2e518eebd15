package webservice

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/serialize"
	"globuscompute/internal/trace"
)

// TestSubmitBodyFormsAgree posts one batch as a raw JSON body, as curl or a
// foreign SDK sends it, and as the binary body the SDK sends. Both must
// create the same task records and the same results.
func TestSubmitBodyFormsAgree(t *testing.T) {
	h := newHTTPFixture(t)
	fn := h.registerFunction(t)
	ep := h.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	h.fakeAgent(t, ep)
	group := protocol.NewUUID()
	tc := trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	spill := bytes.Repeat([]byte("s"), serialize.DefaultInlineThreshold+1)
	batch := []SubmitRequest{
		{EndpointID: ep, FunctionID: fn, GroupID: group, Trace: tc,
			Payload: protocol.EncodePythonSpec(protocol.PythonSpec{Entrypoint: "identity", Args: []json.RawMessage{[]byte(`"<&>"`)}})},
		{EndpointID: ep, FunctionID: fn, GroupID: group, Payload: []byte(`{"entrypoint":"identity","args":[7]}`)},
		{EndpointID: ep, FunctionID: fn, Payload: []byte{0, 0xff, '"', '\\', 0x7f}},
		{EndpointID: ep, FunctionID: fn, Trace: tc, Payload: spill},
	}
	asJSON, err := json.Marshal(submitRequest{Tasks: batch})
	if err != nil {
		t.Fatal(err)
	}
	asBinary, err := EncodeSubmitBody(batch, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(contentType string, body []byte) []protocol.UUID {
		t.Helper()
		resp, out := h.post(t, "/v2/submit", contentType, bytes.NewReader(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q body: %d %s", contentType, resp.StatusCode, out)
		}
		var sub submitResponse
		if err := json.Unmarshal(out, &sub); err != nil || len(sub.TaskIDs) != len(batch) {
			t.Fatalf("%q body: %s (%v)", contentType, out, err)
		}
		return sub.TaskIDs
	}
	viaJSON, viaBinary := submit("", asJSON), submit(SubmitContentType, asBinary)

	for i := range batch {
		a, err := h.store.GetTask(viaJSON[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := h.store.GetTask(viaBinary[i])
		if err != nil {
			t.Fatal(err)
		}
		ta, tb := a.Task, b.Task
		if ta.FunctionID != tb.FunctionID || ta.EndpointID != tb.EndpointID || ta.Kind != tb.Kind ||
			!bytes.Equal(ta.Payload, tb.Payload) || ta.PayloadRef != tb.PayloadRef ||
			ta.GroupID != tb.GroupID || !reflect.DeepEqual(ta.Trace, tb.Trace) {
			t.Errorf("task %d differs by body form:\n JSON:   %+v\n binary: %+v", i, ta, tb)
		}
		sa, sb := waitTask(t, h.svc, viaJSON[i], 5*time.Second), waitTask(t, h.svc, viaBinary[i], 5*time.Second)
		if sa.State != protocol.StateSuccess || sa.State != sb.State || !bytes.Equal(sa.Result, sb.Result) ||
			sa.ResultRef != sb.ResultRef || sa.Error != sb.Error {
			t.Errorf("task %d result differs by body form:\n JSON:   %+v\n binary: %+v", i, sa, sb)
		}
	}
	if rec, err := h.store.GetTask(viaBinary[3]); err != nil || rec.Task.PayloadRef == "" {
		t.Errorf("the large payload did not spill: %v", err)
	}
}

// splitSubmitBody is this test's own reading of the binary framing: the
// header and the sections after it, or ok false when the bytes are not
// exactly that.
func splitSubmitBody(body []byte) (header []byte, sections [][]byte, ok bool) {
	next := func() ([]byte, bool) {
		n, k := binary.Uvarint(body)
		if k <= 0 || n > uint64(len(body)-k) {
			return nil, false
		}
		s := body[k : k+int(n)]
		body = body[k+int(n):]
		return s, true
	}
	if header, ok = next(); !ok {
		return nil, nil, false
	}
	for len(body) > 0 {
		s, ok := next()
		if !ok {
			return nil, nil, false
		}
		sections = append(sections, s)
	}
	return header, sections, true
}

// FuzzSubmitBody hardens the binary submit decoder. On any input it must
// not panic, must allocate only a small multiple of the body (a declared
// length is never trusted before the bytes are there), and must refuse
// with a 400 or a 413. What it accepts must be well formed by the test's
// own reading: one section per task, nothing after the last, no payload in
// the header. And an accepted body re-encodes to the same payload sections
// byte for byte, under a header that decodes to the same request (the
// header is compared by value, since JSON has many spellings of it).
func FuzzSubmitBody(f *testing.F) {
	tasks := []SubmitRequest{
		{EndpointID: protocol.NewUUID(), FunctionID: protocol.NewUUID(), Payload: []byte(`{"entrypoint":"identity","args":[1]}`),
			GroupID: protocol.NewUUID(), Trace: trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()},
			UserEndpointConfig: json.RawMessage(`{"ACCOUNT_ID":"x"}`)},
		{EndpointID: "e", FunctionID: "f", Payload: nil},
		{EndpointID: "e", FunctionID: "f", Payload: []byte{0xBE, 1, 0, 0xff}},
	}
	valid, err := EncodeSubmitBody(tasks, SubmitOptions{IdempotencyKey: "k", Interactive: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                                            // truncated section
	f.Add(append(append([]byte(nil), valid...), 0))                        // trailing byte
	f.Add(binary.AppendUvarint([]byte{2, '{', '}'}, serialize.MaxPayload)) // declared length past the body
	f.Add(binary.AppendUvarint(nil, maxBodyBytes))                         // header length past the body
	for _, header := range []string{
		`{"tasks":[{"endpoint_id":"e","payload":"YWJj"}]}`, // payload in the header
		`{"tasks":[{},{}]}`, // fewer sections than tasks
		`{"tasks":[{"endpoint_id":"e","payload":null}]}`,
		`{"tasks" : [ {"user_endpoint_config" : { "A" : 1 } } ] }`,
	} {
		b := binary.AppendUvarint(nil, uint64(len(header)))
		b = append(b, header...)
		f.Add(append(b, 3, 'a', 'b', 'c'))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, err := readBinarySubmit(bytes.NewReader(body), int64(len(body)), serialize.MaxPayload)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+256*uint64(len(body)) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), grew)
		}
		if err != nil {
			if st := statusFor(err); st != http.StatusBadRequest && st != http.StatusRequestEntityTooLarge {
				t.Fatalf("refusal %v maps to %d", err, st)
			}
			return
		}
		header, sections, ok := splitSubmitBody(body)
		if !ok || len(sections) != len(req.Tasks) {
			t.Fatalf("accepted %d tasks from a body that does not frame as header + one section each", len(req.Tasks))
		}
		var inHeader struct {
			Tasks []struct {
				Payload json.RawMessage `json:"payload"`
			} `json:"tasks"`
		}
		if err := json.Unmarshal(header, &inHeader); err != nil {
			t.Fatalf("accepted header %q: %v", header, err)
		}
		for i, tk := range inHeader.Tasks {
			if tk.Payload != nil && string(tk.Payload) != "null" {
				t.Fatalf("accepted task %d with a payload in the header", i)
			}
		}
		for i := range sections {
			if !bytes.Equal(req.Tasks[i].Payload, sections[i]) {
				t.Fatalf("task %d payload %q, section %q", i, req.Tasks[i].Payload, sections[i])
			}
		}

		again, err := EncodeSubmitBody(req.Tasks, req.options())
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		_, sectionsAgain, ok := splitSubmitBody(again)
		if !ok || !reflect.DeepEqual(sectionsAgain, sections) {
			t.Fatalf("re-encoded sections differ")
		}
		req2, err := readBinarySubmit(bytes.NewReader(again), int64(len(again)), serialize.MaxPayload)
		if err != nil {
			t.Fatalf("re-encoded body refused: %v", err)
		}
		third, err := EncodeSubmitBody(req2.Tasks, req2.options())
		if err != nil || req2.options() != req.options() || !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not a fixed point: %v\n %q\n %q", err, again, third)
		}
	})
}
