package protocol

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"globuscompute/internal/trace"
)

// Bodies and frames as the string-ID encoding wrote them, for a task, its
// result and two broker frames carrying the W3C example IDs
// (0af7651916cd43dd8448eb211c80319c / b7ad6b7169203331) in each form that
// encoding had: lower-case hex packed to raw bytes (flags 7, or 1 without a
// span), and any other text verbatim (flags 2 or 0). The two frames carry
// the version-3 header (magic, version, code, flags); their bodies are the
// ones that encoding wrote.
const (
	parentTaskPrefix   = "bd018002006ba7b8129dad41d180b400c04fd430c8006ba7b8119dad41d180b400c04fd430c8006ba7b8109dad41d180b400c04fd430c8010270"
	parentResultPrefix = "bc018002006ba7b8129dad41d180b400c04fd430c805006ba7b8109dad41d180b400c04fd430c8033432"
	parentDelivery     = "bf030300036ba7b8109dad41d180b400c04fd430c8040102780207100af7651916cd43dd8448eb211c80319c08b7ad6b71692033310202790200074e4f542d48455803027a00"
	parentPublish      = "bf030200016ba7b8109dad41d180b400c04fd430c80302610262030107100af7651916cd43dd8448eb211c80319c08b7ad6b716920333100"
)

// parentContexts are the trace-context tails of those bodies.
var parentContexts = []struct {
	name, tail string
	packed     bool // the form this tree writes
	want       trace.Context
}{
	{"packed", "07100af7651916cd43dd8448eb211c80319c08b7ad6b7169203331", true, w3c()},
	{"packed, no span", "01100af7651916cd43dd8448eb211c80319c", false, trace.Context{TraceID: w3c().TraceID}},
	{"verbatim upper-case hex", "022030414637363531393136434434334444383434384542323131433830333139431042374144364237313639323033333331", false, w3c()},
	{"verbatim lower-case hex", "022030616637363531393136636434336464383434386562323131633830333139631062376164366237313639323033333331", false, w3c()},
	{"verbatim garbage", "02074e4f542d48455803616263", false, trace.Context{}},
	{"all-zero IDs", "071000000000000000000000000000000000080000000000000000", false, trace.Context{}},
	{"packed, wrong sizes", "0701ab01cd", false, trace.Context{}},
	{"packed trace, verbatim garbage span", "03100af7651916cd43dd8448eb211c80319c03616263", false, trace.Context{}},
}

func w3c() trace.Context {
	return trace.ParseContext("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331")
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTraceCompat: every trace-context form the string-ID encoding wrote
// decodes to its context, or to none when the IDs are not 16 and 8 bytes,
// never to an error; and what this tree writes is what that encoding wrote
// for well-formed IDs, byte for byte.
func TestTraceCompat(t *testing.T) {
	for _, c := range parentContexts {
		task, err := DecodeTask(unhex(t, parentTaskPrefix+c.tail))
		if err != nil || task.Trace != c.want || task.ID != "6ba7b812-9dad-41d1-80b4-00c04fd430c8" || string(task.Payload) != "p" {
			t.Errorf("%s task: %v, trace %+v, want %+v", c.name, err, task.Trace, c.want)
		}
		body := unhex(t, parentResultPrefix+c.tail)
		res, at, err := DecodeResultAt(body)
		if err != nil || res.Trace != c.want || string(res.Output) != "42" {
			t.Errorf("%s result: %v, trace %+v, want %+v", c.name, err, res.Trace, c.want)
		}
		if (at >= 0) != c.packed {
			t.Errorf("%s result: trace at %d, packed %v", c.name, at, c.packed)
		}
		if c.packed {
			if enc := EncodeTask(&task); !bytes.Equal(enc, unhex(t, parentTaskPrefix+c.tail)) {
				t.Errorf("%s: EncodeTask = %x", c.name, enc)
			}
			if enc := EncodeResult(&res); !bytes.Equal(enc, body) {
				t.Errorf("%s: EncodeResult = %x", c.name, enc)
			}
		}
		if c.name == "packed, no span" {
			if enc := EncodeResult(&res); !bytes.Equal(enc, body) {
				t.Errorf("%s: EncodeResult = %x", c.name, enc)
			}
		}
	}

	env, err := DecodeBinaryEnvelope(unhex(t, parentDelivery))
	if err != nil {
		t.Fatal(err)
	}
	items := env.Bin.(*DeliveryBatchBody).Items
	if len(items) != 3 || items[0].Trace != w3c() || items[1].Trace.Valid() || items[2].Trace.Valid() {
		t.Errorf("delivery batch items %+v", items)
	}
	env, err = DecodeBinaryEnvelope(unhex(t, parentPublish))
	if err != nil {
		t.Fatal(err)
	}
	if traces := env.Bin.(*PublishBatchBody).Traces; len(traces) != 2 || traces[0] != w3c() || traces[1].Valid() {
		t.Errorf("publish batch traces %+v", traces)
	}
	if p, err := EncodeBinaryEnvelope(env); err != nil || !bytes.Equal(p, unhex(t, parentPublish)) {
		t.Errorf("publish batch re-encodes to %x, %v", p, err)
	}

	// A JSON body with a malformed ID: the body decodes, the context is gone.
	tb, _ := json.Marshal(map[string]any{"task_id": "6ba7b812-9dad-41d1-80b4-00c04fd430c8",
		"trace": map[string]string{"trace_id": "t1", "span_id": "s1"}})
	if task, err := DecodeTask(tb); err != nil || task.Trace.Valid() {
		t.Errorf("JSON task with a malformed trace: %v, %+v", err, task.Trace)
	}
}

// TestRetraceResult: patching a result body's packed context in a copy gives
// exactly EncodeResult of the re-pointed result, and leaves the body alone.
func TestRetraceResult(t *testing.T) {
	res := addResult(addTask())
	res.Trace = trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	body := EncodeResult(&res)
	orig := bytes.Clone(body)
	got, at, err := DecodeResultAt(body)
	if err != nil || at < 0 {
		t.Fatalf("DecodeResultAt: %v, trace at %d", err, at)
	}
	next := trace.Context{TraceID: got.Trace.TraceID, SpanID: trace.NewSpanID()}
	patched, ok := RetraceResult(body, at, next)
	got.Trace = next
	if !ok || !bytes.Equal(patched, EncodeResult(&got)) {
		t.Errorf("RetraceResult = %x, %v\n  want %x", patched, ok, EncodeResult(&got))
	}
	if !bytes.Equal(body, orig) {
		t.Error("RetraceResult wrote into the delivered body")
	}
	if _, ok := RetraceResult(body, at, trace.Context{TraceID: next.TraceID}); ok {
		t.Error("a context without a span changes the layout; it must not patch")
	}
	for name, b := range map[string][]byte{
		"untraced": EncodeResult(&Result{TaskID: NewUUID(), State: StateSuccess}),
		"no span":  EncodeResult(&Result{TaskID: NewUUID(), State: StateSuccess, Trace: trace.Context{TraceID: next.TraceID}}),
		"json":     []byte(`{"task_id":"x","state":"success","trace":{"trace_id":"` + next.TraceID.String() + `","span_id":"` + next.SpanID.String() + `"}}`),
	} {
		if _, at, err := DecodeResultAt(b); err != nil || at != -1 {
			t.Errorf("%s: trace at %d, %v; want -1", name, at, err)
		}
	}
}

// FuzzTraceContext feeds arbitrary flags and ID bytes through a result
// body's trace context: no panic, every error wraps ErrBadFrame, a decoded
// context is valid or none, decode→encode→decode is stable, and a packed
// context patches to what EncodeResult writes.
func FuzzTraceContext(f *testing.F) {
	for _, c := range parentContexts {
		tail, _ := hex.DecodeString(c.tail)
		f.Add(tail[0], tail[2:min(len(tail), 18)], []byte(nil), tail)
	}
	f.Add(byte(7), make([]byte, 16), make([]byte, 8), []byte{7, 16})
	f.Add(byte(0xff), []byte("0af7651916cd43dd8448eb211c80319c"), []byte("b7ad6b7169203331"), []byte{0x80, 0x80})
	prefix, err := hex.DecodeString(parentResultPrefix)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, flags byte, tid, sid, raw []byte) {
		// raw: any bytes where the context goes.
		if _, err := DecodeResult(append(bytes.Clone(prefix), raw...)); err != nil && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("decode error does not wrap ErrBadFrame: %v", err)
		}
		// A well-framed context: flags, then length-prefixed IDs.
		var buf bytes.Buffer
		w := binWriter{buf: &buf}
		w.u8(flags)
		w.chunk(tid)
		if flags&tcFlagSpan != 0 {
			w.chunk(sid)
		}
		body := append(bytes.Clone(prefix), buf.Bytes()...)
		res, at, err := DecodeResultAt(body)
		if err != nil {
			t.Fatalf("a well-framed context failed to decode: %v", err)
		}
		if !res.Trace.Valid() && res.Trace != (trace.Context{}) {
			t.Fatalf("invalid context %+v is not the zero Context", res.Trace)
		}
		again, at2, err := DecodeResultAt(EncodeResult(&res))
		if err != nil || !reflect.DeepEqual(again, res) {
			t.Fatalf("decode→encode→decode: %v\n got %+v\nwant %+v", err, again, res)
		}
		if (at2 >= 0) != !res.Trace.SpanID.IsZero() {
			t.Fatalf("re-encoded context with span %v found at %d", res.Trace.SpanID, at2)
		}
		if at >= 0 {
			next := trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
			patched, ok := RetraceResult(body, at, next)
			res.Trace = next
			if !ok || !bytes.Equal(patched, EncodeResult(&res)) {
				t.Fatalf("patched %x, %v; want %x", patched, ok, EncodeResult(&res))
			}
		}
	})
}

// BenchmarkTraceContext is what carrying a trace context costs a result
// body and a delivery batch of 64, encoded and decoded; the untraced body
// is the baseline.
func BenchmarkTraceContext(b *testing.B) {
	res := addResult(addTask())
	plain := res
	res.Trace = trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	body, plainBody := EncodeResult(&res), EncodeResult(&plain)
	items := make([]DeliveryItem, 64)
	for i := range items {
		items[i] = DeliveryItem{Tag: uint64(i + 1), Body: body, Trace: trace.Context{TraceID: res.Trace.TraceID, SpanID: trace.NewSpanID()}}
	}
	env := Envelope{Type: EnvDeliveryBatch, Bin: &DeliveryBatchBody{Queue: ResultQueue(NewUUID()), Items: items}}
	frame, err := EncodeBinaryEnvelope(env)
	if err != nil {
		b.Fatal(err)
	}
	for _, bm := range []struct {
		name string
		fn   func()
	}{
		{"result/encode", func() { EncodeResult(&res) }},
		{"result/decode", func() { _, _ = DecodeResult(body) }},
		{"result/decode-untraced", func() { _, _ = DecodeResult(plainBody) }},
		{"delivery64/encode", func() { _, _ = EncodeBinaryEnvelope(env) }},
		{"delivery64/decode", func() { _, _ = DecodeBinaryEnvelope(frame) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bm.fn()
			}
		})
	}
}
