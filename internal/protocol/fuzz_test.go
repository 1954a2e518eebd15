package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"globuscompute/internal/trace"
)

// FuzzFrameReader hardens the wire framing against malformed input: no
// crash, no unbounded allocation, errors surfaced cleanly.
func FuzzFrameReader(f *testing.F) {
	// Seed with a valid frame, truncations, and junk.
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	w.Write(MustEnvelope(EnvTask, "id", map[string]string{"k": "v"}))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, '{', '}', '!', '!'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("\x00\x00\x00\x02{}"))
	// Binary frames: a valid one (length prefix + payload), a bare magic
	// byte, and a corrupt version.
	if p, err := EncodeBinaryEnvelope(Envelope{Type: EnvAck, Bin: &AckBody{Queue: "q", Tag: 7}}); err == nil {
		framed := append([]byte{0, 0, 0, byte(len(p))}, p...)
		f.Add(framed)
	}
	f.Add([]byte{0, 0, 0, 1, binMagic})
	f.Add([]byte{0, 0, 0, 3, binMagic, 0xEE, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewFrameReader(bytes.NewReader(data))
		for i := 0; i < 8; i++ {
			if _, err := r.Read(); err != nil {
				return
			}
		}
	})
}

// FuzzDecodePayload ensures arbitrary payload bytes never panic the
// decoders.
func FuzzDecodePayload(f *testing.F) {
	f.Add([]byte(`{"command":"ls"}`))
	f.Add([]byte(`{`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var shell ShellSpec
		_ = DecodePayload(data, &shell)
		var py PythonSpec
		_ = DecodePayload(data, &py)
	})
}

// FuzzPythonSpec hardens DecodePythonSpec and checks the two python-payload
// forms agree. Any payload decodes without a panic, and a binary one that
// decodes re-encodes to one that decodes to the same spec. A spec built the
// way the SDK builds one, each argument json.Marshal'd, decodes to the same
// PythonSpec from the binary envelope as from its JSON encoding.
func FuzzPythonSpec(f *testing.F) {
	big := strings.Repeat("payload-mix ", 200_000/12)
	f.Add([]byte(nil), "identity", big, "")
	f.Add([]byte(`{"entrypoint":"identity","args":[1]}`), "echo_kwargs", `<a href="x">&amp;</a>`, "<&>")
	f.Add(EncodePythonSpec(PythonSpec{Entrypoint: "add", Args: []json.RawMessage{[]byte("1"), []byte("2")},
		Kwargs: map[string]json.RawMessage{"z": []byte(`"last"`), "a": []byte(`null`)}}), "add", "héllo wörld ✓ 𝄞  ", "ключ")
	f.Add([]byte{pySpecTag}, "", "", "")
	f.Add([]byte{pySpecTag, pySpecVersion, 0xFF, 0xFF}, "x", "\x00", "k")
	f.Add([]byte{pySpecTag, 2}, "x", "", "")
	f.Fuzz(func(t *testing.T, payload []byte, entrypoint, arg, key string) {
		if spec, err := DecodePythonSpec(payload); len(payload) > 0 && payload[0] == pySpecTag {
			if err != nil {
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("binary decode error does not wrap ErrBadFrame: %v", err)
				}
			} else if again, err := DecodePythonSpec(EncodePythonSpec(spec)); err != nil || !reflect.DeepEqual(again, spec) {
				t.Fatalf("re-encoded spec: %v\n  got: %#v\n want: %#v", err, again, spec)
			}
		}

		// JSON replaces invalid UTF-8 in strings with U+FFFD, so the forms
		// agree only on valid names (arguments are marshalled first, so any
		// string is fine there).
		if !utf8.ValidString(entrypoint) || !utf8.ValidString(key) {
			return
		}
		a, err := json.Marshal(arg)
		if err != nil {
			t.Fatal(err)
		}
		spec := PythonSpec{Entrypoint: entrypoint, Args: []json.RawMessage{a, []byte(`{"n":[1,2.5,null]}`)}}
		if key != "" {
			spec.Kwargs = map[string]json.RawMessage{key: a, "n": []byte("7")}
		}
		jsonForm, err := EncodePayload(spec)
		if err != nil {
			t.Fatal(err)
		}
		viaJSON, err := DecodePythonSpec(jsonForm)
		if err != nil {
			t.Fatalf("JSON form: %v", err)
		}
		viaBinary, err := DecodePythonSpec(EncodePythonSpec(spec))
		if err != nil {
			t.Fatalf("binary form: %v", err)
		}
		if !reflect.DeepEqual(viaJSON, viaBinary) || !reflect.DeepEqual(viaBinary, spec) {
			t.Fatalf("forms disagree:\n json: %#v\n  bin: %#v\n spec: %#v", viaJSON, viaBinary, spec)
		}
	})
}

// FuzzCodecEquivalence checks the two wire encodings agree: an envelope
// pushed through the binary codec decodes to exactly the value the JSON
// codec produces for the same envelope — including nil-vs-empty bodies,
// queue-name compression, and trace contexts that are not well-formed hex.
func FuzzCodecEquivalence(f *testing.F) {
	f.Add(byte(0), "tasks.queue", uint64(0), []byte(`payload`), false, "17", "abcdef", "0123")
	f.Add(byte(0), "tasks."+string(NewUUID()), uint64(9), []byte{}, true, "", "", "")
	f.Add(byte(1), "results.group."+string(NewUUID()), uint64(1<<40), []byte("x"), false, "id", "NOT-HEX", "odd")
	f.Add(byte(2), "results."+string(NewUUID()), uint64(3), []byte(nil), true, "a", "ab", "")
	f.Add(byte(3), "mepcmd."+string(NewUUID()), uint64(1), []byte("body"), false, "", "ffff", "ee")
	f.Add(byte(4), "dlq.tasks.x", uint64(2), []byte("b"), true, "z", "", "")
	f.Add(byte(5), "q", uint64(0), []byte(nil), false, "", "", "")
	f.Add(byte(6), "boom", uint64(0), []byte(nil), false, "e", "", "")
	f.Add(byte(7), "", uint64(0), []byte(nil), true, "ok", "", "")
	f.Add(byte(8), "", uint64(0), []byte("heartbeat"), false, "", "", "")
	f.Fuzz(func(t *testing.T, kind byte, queue string, tag uint64, body []byte, flag bool, id, traceID, spanID string) {
		// JSON replaces invalid UTF-8 in strings with U+FFFD, so equivalence
		// is only promised for valid strings (bodies are []byte and exempt).
		for _, s := range []string{queue, id, traceID, spanID} {
			if !utf8.ValidString(s) {
				return
			}
		}
		env := Envelope{ID: id}
		if traceID != "" || spanID != "" {
			env.Trace = &trace.Context{TraceID: trace.TraceID(traceID), SpanID: trace.SpanID(spanID)}
		}
		switch kind % 9 {
		case 0:
			env.Type = EnvPublish
			env.Bin = &PublishBody{Queue: queue, Body: body}
		case 1:
			env.Type = EnvPublishBatch
			env.Bin = &PublishBatchBody{Queue: queue, Bodies: [][]byte{body, nil, {}},
				Traces: []*trace.Context{nil, env.Trace, nil}}
		case 2:
			env.Type = EnvDelivery
			env.Bin = &DeliveryBody{Queue: queue, Tag: tag, Body: body, Redelivered: flag}
		case 3:
			env.Type = EnvDeliveryBatch
			env.Bin = &DeliveryBatchBody{Queue: queue,
				Items: []DeliveryItem{{Tag: tag, Body: body, Redelivered: flag, Trace: env.Trace}, {Tag: tag + 1}}}
		case 4:
			env.Type = EnvAck
			env.Bin = &AckBody{Queue: queue, Tag: tag, DeadLetter: flag}
		case 5:
			env.Type = EnvAckBatch
			env.Bin = &AckBatchBody{Queue: queue, Tags: []uint64{tag, tag + 1}}
		case 6:
			env.Type = EnvError
			env.Bin = &ErrorBody{Message: queue}
		case 7:
			env.Type = EnvOK
			env.Bin = &OKBody{Bin: flag}
		case 8:
			// Generic path: any envelope type, JSON body carried verbatim
			// under binary framing.
			env.Type = EnvHeartbeat
			b, err := json.Marshal(string(body))
			if err != nil {
				t.Fatal(err)
			}
			env.Body = b
		}

		// The JSON codec's view of the envelope.
		norm, err := env.Normalize()
		if err != nil {
			t.Fatalf("normalize: %v", err)
		}
		jb, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("json encode: %v", err)
		}
		var viaJSON Envelope
		if err := json.Unmarshal(jb, &viaJSON); err != nil {
			t.Fatalf("json decode: %v", err)
		}

		// The binary codec's view of the same envelope.
		bp, err := EncodeBinaryEnvelope(env)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		dec, err := DecodeBinaryEnvelope(bp)
		if err != nil {
			t.Fatalf("binary decode of own encoding: %v", err)
		}
		viaBin, err := dec.Normalize()
		if err != nil {
			t.Fatalf("normalize decoded: %v", err)
		}

		if !reflect.DeepEqual(viaJSON, viaBin) {
			t.Fatalf("codecs disagree:\n json: %#v\n  bin: %#v", viaJSON, viaBin)
		}
	})
}

// FuzzBinaryDecode hardens DecodeBinaryEnvelope against truncated and
// corrupt frames: never a panic, every failure wraps ErrBadFrame, and
// anything that does decode re-encodes cleanly.
func FuzzBinaryDecode(f *testing.F) {
	seeds := []Envelope{
		{Type: EnvPublish, ID: "1", Bin: &PublishBody{Queue: "tasks." + string(NewUUID()), Body: []byte("task")}},
		{Type: EnvDeliveryBatch, Bin: &DeliveryBatchBody{Queue: "q", Items: []DeliveryItem{{Tag: 1, Body: []byte("x")}}}},
		{Type: EnvAckBatch, Bin: &AckBatchBody{Queue: "q", Tags: []uint64{1, 2, 3}}},
		{Type: EnvHeartbeat, Body: []byte(`{"at":1}`),
			Trace: &trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}},
	}
	for _, env := range seeds {
		p, err := EncodeBinaryEnvelope(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		f.Add(p[:len(p)/2]) // truncation
	}
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, BinVersion, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeBinaryEnvelope(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error does not wrap ErrBadFrame: %v", err)
			}
			return
		}
		if _, err := EncodeBinaryEnvelope(env); err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
		}
	})
}

// FuzzUUIDValid checks Valid never panics and accepts only 36-byte
// canonical forms.
func FuzzUUIDValid(f *testing.F) {
	f.Add(string(NewUUID()))
	f.Add("")
	f.Add("zzzzzzzz-zzzz-zzzz-zzzz-zzzzzzzzzzzz")
	f.Fuzz(func(t *testing.T, s string) {
		if UUID(s).Valid() && len(s) != 36 {
			t.Fatalf("Valid accepted %d-byte string %q", len(s), s)
		}
	})
}
