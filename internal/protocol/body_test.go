package protocol

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"
	"unsafe"

	"globuscompute/internal/trace"
)

// addTask is the body sat-mem moves: an add task as the web service admits
// it from an SDK executor (binary python payload, a task group, untraced).
func addTask() Task {
	return Task{
		ID: NewUUID(), FunctionID: NewUUID(), EndpointID: NewUUID(), Kind: KindPython,
		Payload: EncodePythonSpec(PythonSpec{Entrypoint: "add",
			Args: []json.RawMessage{json.RawMessage("17"), json.RawMessage("25")}}),
		UserIdentity: "bench-user", GroupID: NewUUID(), Submitted: time.Now(),
	}
}

// addResult is the result an agent publishes for addTask.
func addResult(t Task) Result {
	started := time.Now()
	return Result{
		TaskID: t.ID, State: StateSuccess, Output: []byte("42"), EndpointID: t.EndpointID,
		WorkerID: "mgr-1-w3", Started: started, Completed: started.Add(21 * time.Microsecond),
		ExecutionMS: 0.021, QueueDelay: 1200 * time.Microsecond,
	}
}

// sameInstant strips what JSON and the binary body both drop from a time:
// the monotonic reading and the zone.
func sameInstant(t time.Time) time.Time {
	if t.IsZero() {
		return time.Time{}
	}
	return time.Unix(0, t.UnixNano()).UTC()
}

func TestTaskBodyRoundTrip(t *testing.T) {
	full := addTask()
	full.PayloadRef, full.Resources = "obj-key", ResourceSpec{NumNodes: 2, RanksPerNode: 4, NumRanks: 8}
	full.RoutingGroup, full.Rerouted, full.Attempts = NewUUID(), 1, 3
	full.Trace = trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	odd := Task{ID: "not-a-uuid", FunctionID: UUID(NewUUID()[:35] + "G"), Kind: "wasm", Payload: []byte{},
		Trace: trace.Context{TraceID: trace.NewTraceID()}, Attempts: -1}
	for name, task := range map[string]Task{"add": addTask(), "full": full, "odd": odd, "zero": {}} {
		task.Submitted = sameInstant(task.Submitted)
		got, err := DecodeTask(EncodeTask(&task))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, task) {
			t.Errorf("%s: round trip\n got %#v\nwant %#v", name, got, task)
		}
	}
}

func TestResultBodyRoundTrip(t *testing.T) {
	full := addResult(addTask())
	full.OutputRef, full.Error, full.DeadLettered = "obj-key", "boom", true
	full.Trace = trace.Context{TraceID: trace.NewTraceID()}
	odd := Result{TaskID: "x", State: "lost", Output: []byte{}, ExecutionMS: math.Copysign(0, -1), QueueDelay: -time.Second}
	for name, res := range map[string]Result{"add": addResult(addTask()), "full": full, "odd": odd, "zero": {}} {
		res.Started, res.Completed = sameInstant(res.Started), sameInstant(res.Completed)
		got, err := DecodeResult(EncodeResult(&res))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("%s: round trip\n got %#v\nwant %#v", name, got, res)
		}
	}
}

// TestBodiesDecodeJSON: a JSON body, as data dirs written before binary
// bodies and the benchmark's probes hold, decodes to what encoding/json
// gives.
func TestBodiesDecodeJSON(t *testing.T) {
	task := addTask()
	tb, _ := json.Marshal(task)
	gotTask, err := DecodeTask(tb)
	var wantTask Task
	_ = json.Unmarshal(tb, &wantTask)
	if err != nil || !reflect.DeepEqual(gotTask, wantTask) {
		t.Fatalf("JSON task: %v\n got %#v\nwant %#v", err, gotTask, wantTask)
	}
	res := addResult(task)
	rb, _ := json.Marshal(res)
	gotRes, err := DecodeResult(rb)
	var wantRes Result
	_ = json.Unmarshal(rb, &wantRes)
	if err != nil || !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("JSON result: %v\n got %#v\nwant %#v", err, gotRes, wantRes)
	}
	for _, bad := range [][]byte{nil, []byte("{"), []byte("[]"), {taskBodyMagic}, {resultBodyMagic, 9}} {
		if _, err := DecodeTask(bad); !errors.Is(err, ErrBadFrame) {
			t.Errorf("DecodeTask(%q) = %v, want ErrBadFrame", bad, err)
		}
		if _, err := DecodeResult(bad); !errors.Is(err, ErrBadFrame) {
			t.Errorf("DecodeResult(%q) = %v, want ErrBadFrame", bad, err)
		}
	}
	if _, err := DecodeResult(EncodeTask(&task)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("a task body decoded as a result: %v", err)
	}
}

// TestBodySizeGuard: the binary add task and its result are at most half
// their JSON.
func TestBodySizeGuard(t *testing.T) {
	task := addTask()
	res := addResult(task)
	tj, _ := json.Marshal(task)
	rj, _ := json.Marshal(res)
	tb, rb := EncodeTask(&task), EncodeResult(&res)
	t.Logf("add task: %d B binary, %d B JSON; result: %d B binary, %d B JSON", len(tb), len(tj), len(rb), len(rj))
	if 2*len(tb) > len(tj) {
		t.Errorf("task body %d B > 0.5x its %d B JSON", len(tb), len(tj))
	}
	if 2*len(rb) > len(rj) {
		t.Errorf("result body %d B > 0.5x its %d B JSON", len(rb), len(rj))
	}
}

// TestBodyAllocs: an encode allocates once, a decode at most half what
// json.Unmarshal does for the same value, traced or not, and a traced
// decode no more than an untraced one: the context decodes into the value.
func TestBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	traced := addTask()
	traced.Trace = trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	var untracedTask, untracedResult float64
	for _, c := range []struct {
		name string
		task Task
	}{{"untraced", addTask()}, {"traced", traced}} {
		name, task := c.name, c.task
		res := addResult(task)
		res.Trace = task.Trace
		tb, rb := EncodeTask(&task), EncodeResult(&res)
		tj, _ := json.Marshal(task)
		rj, _ := json.Marshal(res)
		if n := testing.AllocsPerRun(100, func() { EncodeTask(&task) }); n != 1 {
			t.Errorf("%s: EncodeTask allocates %v times, want 1", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { EncodeResult(&res) }); n != 1 {
			t.Errorf("%s: EncodeResult allocates %v times, want 1", name, n)
		}
		jt := testing.AllocsPerRun(100, func() { var v Task; _ = json.Unmarshal(tj, &v) })
		bt := testing.AllocsPerRun(100, func() { _, _ = DecodeTask(tb) })
		jr := testing.AllocsPerRun(100, func() { var v Result; _ = json.Unmarshal(rj, &v) })
		br := testing.AllocsPerRun(100, func() { _, _ = DecodeResult(rb) })
		t.Logf("%s: task decode %v allocs (JSON %v), result decode %v (JSON %v)", name, bt, jt, br, jr)
		if 2*bt > jt {
			t.Errorf("%s: DecodeTask allocates %v times, more than half of json.Unmarshal's %v", name, bt, jt)
		}
		if 2*br > jr {
			t.Errorf("%s: DecodeResult allocates %v times, more than half of json.Unmarshal's %v", name, br, jr)
		}
		if name == "untraced" {
			untracedTask, untracedResult = bt, br
		} else if bt > untracedTask || br > untracedResult {
			t.Errorf("traced decodes allocate %v (task) and %v (result) times, untraced %v and %v",
				bt, br, untracedTask, untracedResult)
		}
	}
}

// checkDecodes is the arbitrary-bytes half of the body fuzzers: no panic,
// every error wraps ErrBadFrame, and a binary body that decodes re-encodes
// to one that decodes the same.
func checkDecodes[T any](t *testing.T, data []byte, decode func([]byte) (T, error), encode func(*T) []byte) {
	v, err := decode(data)
	if err != nil {
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("decode error does not wrap ErrBadFrame: %v", err)
		}
		return
	}
	if len(data) > 0 && data[0] == '{' {
		return
	}
	again, err := decode(encode(&v))
	if err != nil || !reflect.DeepEqual(again, v) {
		t.Fatalf("re-encoded body: %v\n got %#v\nwant %#v", err, again, v)
	}
}

// viaJSONBody is the reference a binary body must match: the value through
// encoding/json, read back by the decoder's JSON fallback.
func viaJSONBody[T any](t *testing.T, v T, decode func([]byte) (T, error)) T {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decode(b)
	if err != nil {
		t.Fatalf("JSON fallback: %v", err)
	}
	return out
}

func validUTF8(ss ...string) bool {
	for _, s := range ss {
		if !utf8.ValidString(s) {
			return false
		}
	}
	return true
}

// fuzzTrace builds a context from the leading bytes of the fuzzed IDs; one
// whose trace ID comes out zero is no context.
func fuzzTrace(has bool, traceID, spanID string) trace.Context {
	var tc trace.Context
	if has {
		copy(tc.TraceID[:], traceID)
		copy(tc.SpanID[:], spanID)
	}
	if !tc.Valid() {
		return trace.Context{}
	}
	return tc
}

func fuzzTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// FuzzTaskBody hardens DecodeTask and pins the binary task body to the JSON
// one: for a task built from the inputs, the binary round trip gives the
// task back exactly, and gives what a JSON round trip gives whenever JSON
// can carry the strings (it replaces invalid UTF-8).
func FuzzTaskBody(f *testing.F) {
	add := addTask()
	full := add
	full.Trace, full.Attempts, full.PayloadRef = trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}, 2, "k"
	addJSON, _ := json.Marshal(add)
	for _, seed := range [][]byte{EncodeTask(&add), EncodeTask(&full), addJSON, nil, {taskBodyMagic, bodyVersion, 0xff, 0x7f}} {
		f.Add(seed, string(add.ID), "python", []byte("p"), false, "user", int64(1), 0, true, "abcd", "ef")
	}
	f.Add(EncodeTask(&full)[:20], "x", "", []byte(nil), true, "", int64(0), -3, true, "NOT-HEX", "")
	f.Add([]byte("{}"), string(NewUUID()), "wasm", []byte{}, false, "é", int64(-1), 1<<40, false, "", "")
	f.Fuzz(func(t *testing.T, data []byte, id, kind string, payload []byte, nilPayload bool, user string,
		submitted int64, attempts int, hasTrace bool, traceID, spanID string) {
		checkDecodes(t, data, DecodeTask, EncodeTask)

		if nilPayload {
			payload = nil
		} else if payload == nil {
			payload = []byte{}
		}
		task := Task{ID: UUID(id), FunctionID: NewUUID(), EndpointID: UUID(id), Kind: FunctionKind(kind),
			Payload: payload, UserIdentity: user, GroupID: UUID(user), Submitted: fuzzTime(submitted),
			Attempts: attempts, Rerouted: attempts / 2, Resources: ResourceSpec{NumRanks: attempts},
			Trace: fuzzTrace(hasTrace, traceID, spanID)}
		bin, err := DecodeTask(EncodeTask(&task))
		if err != nil {
			t.Fatalf("decode of an encoded task: %v", err)
		}
		if !reflect.DeepEqual(bin, task) {
			t.Fatalf("binary round trip\n got %#v\nwant %#v", bin, task)
		}
		if !validUTF8(id, kind, user, traceID, spanID) {
			return
		}
		if js := viaJSONBody(t, task, DecodeTask); !reflect.DeepEqual(bin, js) {
			t.Fatalf("binary and JSON round trips differ\n bin %#v\njson %#v", bin, js)
		}
	})
}

// FuzzResultBody is FuzzTaskBody for results. JSON drops an empty Output
// (omitempty), so the JSON comparison reads an empty Output as nil; the
// binary round trip keeps it.
func FuzzResultBody(f *testing.F) {
	add := addResult(addTask())
	full := add
	full.Trace, full.DeadLettered, full.Error = trace.Context{TraceID: trace.NewTraceID()}, true, "boom"
	addJSON, _ := json.Marshal(add)
	for _, seed := range [][]byte{EncodeResult(&add), EncodeResult(&full), addJSON, nil, {resultBodyMagic, bodyVersion, 0x80}} {
		f.Add(seed, string(add.TaskID), "success", []byte("42"), false, "", int64(1), int64(2), 0.5, false, true, "abcd", "")
	}
	f.Add(EncodeResult(&full)[:9], "x", "", []byte(nil), true, "err", int64(0), int64(-5), -0.0, true, false, "", "")
	f.Add([]byte("{\"state\":1}"), string(NewUUID()), "lost", []byte{}, false, "<&>", int64(-1), int64(1<<62), 1e300, false, true, "Z", "z")
	f.Fuzz(func(t *testing.T, data []byte, id, state string, output []byte, nilOutput bool, msg string,
		started, delay int64, execMS float64, deadLettered, hasTrace bool, traceID, spanID string) {
		checkDecodes(t, data, DecodeResult, EncodeResult)

		if nilOutput {
			output = nil
		} else if output == nil {
			output = []byte{}
		}
		if math.IsNaN(execMS) || math.IsInf(execMS, 0) {
			execMS = 0.25 // JSON has no encoding for either
		}
		res := Result{TaskID: UUID(id), State: TaskState(state), Output: output, OutputRef: msg, Error: msg,
			EndpointID: NewUUID(), WorkerID: state, Started: fuzzTime(started), Completed: fuzzTime(started / 2),
			ExecutionMS: execMS, QueueDelay: time.Duration(delay), DeadLettered: deadLettered,
			Trace: fuzzTrace(hasTrace, traceID, spanID)}
		bin, err := DecodeResult(EncodeResult(&res))
		if err != nil {
			t.Fatalf("decode of an encoded result: %v", err)
		}
		if !reflect.DeepEqual(bin, res) {
			t.Fatalf("binary round trip\n got %#v\nwant %#v", bin, res)
		}
		if !validUTF8(id, state, msg, traceID, spanID) {
			return
		}
		js := viaJSONBody(t, res, DecodeResult)
		if len(bin.Output) == 0 {
			bin.Output = nil
		}
		if !reflect.DeepEqual(bin, js) {
			t.Fatalf("binary and JSON round trips differ\n bin %#v\njson %#v", bin, js)
		}
	})
}

// BenchmarkBodies compares the add task and its result through the binary
// body and through encoding/json, the encoding it replaced.
func BenchmarkBodies(b *testing.B) {
	task := addTask()
	res := addResult(task)
	tb, rb := EncodeTask(&task), EncodeResult(&res)
	tj, _ := json.Marshal(task)
	rj, _ := json.Marshal(res)
	for _, bm := range []struct {
		name string
		fn   func()
	}{
		{"task/encode/binary", func() { EncodeTask(&task) }},
		{"task/encode/json", func() { _, _ = json.Marshal(task) }},
		{"task/decode/binary", func() { _, _ = DecodeTask(tb) }},
		{"task/decode/json", func() { var v Task; _ = json.Unmarshal(tj, &v) }},
		{"result/encode/binary", func() { EncodeResult(&res) }},
		{"result/encode/json", func() { _, _ = json.Marshal(res) }},
		{"result/decode/binary", func() { _, _ = DecodeResult(rb) }},
		{"result/decode/json", func() { var v Result; _ = json.Unmarshal(rj, &v) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bm.fn()
			}
		})
	}
}

// TestBodyEmptyFieldsHoldNoArena: a decoded result's empty strings, which a
// task row keeps for the retention period, do not point into the string
// arena, so keeping them does not keep the arena.
func TestBodyEmptyFieldsHoldNoArena(t *testing.T) {
	res := addResult(addTask())
	got, err := DecodeResult(EncodeResult(&res))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]string{"Error": got.Error, "OutputRef": got.OutputRef} {
		if unsafe.StringData(s) != nil {
			t.Errorf("empty %s points into the decoded body's arena", name)
		}
	}
}
