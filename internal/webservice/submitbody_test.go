package webservice

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/serialize"
	"globuscompute/internal/trace"
)

// TestSubmitBodyFormsAgree posts one batch as a raw JSON body, as curl or a
// foreign SDK sends it, and as the binary body the SDK sends. Both must
// decode to the same requests, and create the same task records and the
// same results; each form is answered in its own reply form.
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
		{EndpointID: ep, FunctionID: fn, GroupID: group, Payload: []byte(`{"entrypoint":"identity","args":[7]}`),
			Resources: protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 4}},
		{EndpointID: ep, FunctionID: fn, GroupID: "Not-A-Canonical-Group", Payload: []byte{0, 0xff, '"', '\\', 0x7f},
			UserEndpointConfig: json.RawMessage(`{"ACCOUNT_ID":"x","NODES_PER_BLOCK":1}`)},
		{EndpointID: ep, FunctionID: fn, Trace: tc, Payload: spill},
	}
	asJSON, err := json.Marshal(submitRequest{Tasks: batch, IdempotencyKey: "k", Priority: "interactive"})
	if err != nil {
		t.Fatal(err)
	}
	opts := SubmitOptions{IdempotencyKey: "k", Interactive: true}
	asBinary := EncodeSubmitBody(batch, opts)

	// Decoded, the two forms are the same requests, non-canonical IDs,
	// resources and user_endpoint_config included.
	read := func(contentType string, body []byte) ([]SubmitRequest, SubmitOptions) {
		t.Helper()
		r := httptest.NewRequest("POST", "/v2/submit", bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		tasks, got, err := ReadSubmitBody(r, serialize.MaxPayload)
		if err != nil {
			t.Fatalf("%q body: %v", contentType, err)
		}
		return tasks, got
	}
	fromJSON, jsonOpts := read("application/json", asJSON)
	fromBinary, binOpts := read(SubmitContentType, asBinary)
	if !reflect.DeepEqual(fromJSON, fromBinary) || jsonOpts != opts || binOpts != opts {
		t.Fatalf("the forms decode differently:\n JSON:   %+v %+v\n binary: %+v %+v", fromJSON, jsonOpts, fromBinary, binOpts)
	}

	submit := func(contentType string, body []byte) []protocol.UUID {
		t.Helper()
		resp, out := h.post(t, "/v2/submit", contentType, bytes.NewReader(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q body: %d %s", contentType, resp.StatusCode, out)
		}
		var ids []protocol.UUID
		if contentType == SubmitContentType {
			if ct := resp.Header.Get("Content-Type"); ct != protocol.TaskIDsMediaType {
				t.Fatalf("binary submit answered as %q", ct)
			}
			ids, err = protocol.DecodeTaskIDs(out)
		} else {
			var sub submitResponse
			err = json.Unmarshal(out, &sub)
			ids = sub.TaskIDs
		}
		if err != nil || len(ids) != len(batch) {
			t.Fatalf("%q body: %q (%v)", contentType, out, err)
		}
		return ids
	}
	// Without the idempotency key, which would replay the first form's IDs
	// to the second.
	asJSON, err = json.Marshal(submitRequest{Tasks: batch, Priority: "interactive"})
	if err != nil {
		t.Fatal(err)
	}
	viaJSON, viaBinary := submit("", asJSON), submit(SubmitContentType, EncodeSubmitBody(batch, SubmitOptions{Interactive: true}))

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
			!bytes.Equal(ta.Payload, tb.Payload) || ta.PayloadRef != tb.PayloadRef || ta.Resources != tb.Resources ||
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

// TestSubmitDecodeAllocs: a binary body whose tasks share their IDs costs
// the decoder one allocation per payload section and at most four besides
// (the task slice, the endpoint and function strings, and the section
// reader with its read buffer when its pool has none), however many tasks
// it holds.
func TestSubmitDecodeAllocs(t *testing.T) {
	ep, fn := protocol.NewUUID(), protocol.NewUUID()
	const n = 256
	tasks := make([]SubmitRequest, n)
	for i := range tasks {
		tasks[i] = SubmitRequest{EndpointID: ep, FunctionID: fn, Payload: []byte(`{"entrypoint":"add","args":[1,2]}`)}
	}
	body := EncodeSubmitBody(tasks, SubmitOptions{})
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		if _, err := readBinarySubmit(rd, int64(len(body)), serialize.MaxPayload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n+4 {
		t.Errorf("decoding %d tasks: %.0f allocations, want at most %d", n, allocs, n+4)
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
// with a 400 or a 413. A binary header has one spelling, so what it
// accepts re-encodes to the same bytes, and each task's payload is its
// section of the body.
func FuzzSubmitBody(f *testing.F) {
	group := protocol.NewUUID()
	tasks := []SubmitRequest{
		{EndpointID: protocol.NewUUID(), FunctionID: protocol.NewUUID(), Payload: []byte(`{"entrypoint":"identity","args":[1]}`),
			GroupID: group, Trace: trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()},
			UserEndpointConfig: json.RawMessage(`{"ACCOUNT_ID":"x"}`), Resources: protocol.ResourceSpec{NumNodes: 1, NumRanks: 300}},
		{EndpointID: "e", FunctionID: "f", GroupID: group, Payload: nil},
		{EndpointID: "e", FunctionID: "f", Payload: []byte{0xBE, 1, 0, 0xff}},
	}
	valid := EncodeSubmitBody(tasks, SubmitOptions{IdempotencyKey: "k", Interactive: true})
	f.Add(valid)
	f.Add(EncodeSubmitBody(tasks[1:], SubmitOptions{}))
	f.Add(valid[:len(valid)-1])                                               // truncated section
	f.Add(append(bytes.Clone(valid), 0))                                      // trailing byte
	f.Add(binary.AppendUvarint([]byte{3, 0, 0, 1}, serialize.MaxPayload))     // declared length past the body
	f.Add(binary.AppendUvarint(nil, maxBodyBytes))                            // header length past the body
	f.Add([]byte{6, 0, 0, 1, presSameEndpoint, 0x81, 0x00, 1, 'x'})           // task 0 repeats, overlong ID length
	f.Add([]byte{8, 0, 0, 1, presTrace, 2, 'e', 2, 'f', 0})                   // trace cut short
	f.Add([]byte{7, 0, 0, 1, presResources, 2, 'e', 2, 'f', 0, 0, 0, 1, 'x'}) // zero resources
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
		_, sections, ok := splitSubmitBody(body)
		if !ok || len(sections) != len(req.Tasks) {
			t.Fatalf("accepted %d tasks from a body that does not frame as header + one section each", len(req.Tasks))
		}
		for i := range sections {
			if !bytes.Equal(req.Tasks[i].Payload, sections[i]) {
				t.Fatalf("task %d payload %q, section %q", i, req.Tasks[i].Payload, sections[i])
			}
		}
		if again := EncodeSubmitBody(req.Tasks, req.options()); !bytes.Equal(again, body) {
			t.Fatalf("re-encoding differs:\n in:  %q\n out: %q", body, again)
		}
	})
}

// submitBatch256 is a sat-mem submit: 256 add tasks on one endpoint,
// function and group, each with its own trace context when traced.
func submitBatch256(traced bool) []SubmitRequest {
	ep, fn, group := protocol.NewUUID(), protocol.NewUUID(), protocol.NewUUID()
	tasks := make([]SubmitRequest, 256)
	for i := range tasks {
		tasks[i] = SubmitRequest{EndpointID: ep, FunctionID: fn, GroupID: group,
			Payload: protocol.EncodePythonSpec(protocol.PythonSpec{Entrypoint: "add",
				Args: []json.RawMessage{[]byte(strconv.Itoa(i)), []byte(strconv.Itoa(2 * i))}})}
		if traced {
			tasks[i].Trace = trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
		}
	}
	return tasks
}

// BenchmarkSubmitExchange times the SDK's side and the service's side of
// one submit round trip, per task of a 256-task batch: the SDK encodes the
// body, the service decodes it and writes the ID reply, the SDK decodes the
// reply.
func BenchmarkSubmitExchange(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := map[bool]string{false: "untraced", true: "traced"}[traced]
		tasks := submitBatch256(traced)
		body := EncodeSubmitBody(tasks, SubmitOptions{})
		ids := make([]protocol.UUID, len(tasks))
		for i := range ids {
			ids[i] = protocol.NewUUID()
		}
		rec := httptest.NewRecorder()
		binReq := httptest.NewRequest("POST", "/v2/submit", nil)
		binReq.Header.Set("Content-Type", SubmitContentType)
		WriteSubmitReply(rec, binReq, ids)
		perTask := func(b *testing.B, op func()) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tasks)), "ns/task")
		}
		var rd bytes.Reader
		b.Run("encode/"+name, func(b *testing.B) {
			perTask(b, func() { EncodeSubmitBody(tasks, SubmitOptions{}) })
		})
		b.Run("decode/"+name, func(b *testing.B) {
			perTask(b, func() {
				rd.Reset(body)
				if _, err := readBinarySubmit(&rd, int64(len(body)), serialize.MaxPayload); err != nil {
					b.Fatal(err)
				}
			})
		})
		b.Run("reply-write/"+name, func(b *testing.B) {
			r := httptest.NewRequest("POST", "/v2/submit", nil)
			r.Header.Set("Content-Type", SubmitContentType)
			w := httptest.NewRecorder()
			perTask(b, func() {
				w.Body.Reset()
				WriteSubmitReply(w, r, ids)
			})
		})
		reply := rec.Body.Bytes()
		b.Run("reply-decode/"+name, func(b *testing.B) {
			perTask(b, func() {
				if _, err := protocol.DecodeTaskIDs(reply); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}
