package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"globuscompute/internal/trace"
)

// FuzzFrameReader hardens the one decoder of network input on every framed
// connection: no crash, no unbounded allocation, and every failure is a
// clean stream end, an oversized frame, or an error wrapping ErrBadFrame. A
// complete first frame whose payload does not start with the magic byte (a
// JSON envelope, say) must be refused as ErrBadFrame.
func FuzzFrameReader(f *testing.F) {
	// Seed with a valid frame, truncations, junk and JSON frames.
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	w.Write(Envelope{Type: EnvTask, ID: "id", Body: EncodeTask(&Task{ID: NewUUID(), Kind: KindPython})})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, '{', '}', '!', '!'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("\x00\x00\x00\x02{}"))
	// Binary frames: a valid structured one (length prefix + payload), a
	// bare magic byte, and a corrupt version.
	if p, err := EncodeBinaryEnvelope(Envelope{Type: EnvReject, Bin: &RejectBody{Queue: "q", Tag: 7}}); err == nil {
		framed := append([]byte{0, 0, 0, byte(len(p))}, p...)
		f.Add(framed)
	}
	f.Add([]byte{0, 0, 0, 1, binMagic})
	f.Add([]byte{0, 0, 0, 3, binMagic, 0xEE, 0x01})
	// The JSON envelope an old-style peer would send.
	jsonFrame := []byte(`{"type":"ok","id":"1"}`)
	f.Add(append([]byte{0, 0, 0, byte(len(jsonFrame))}, jsonFrame...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			n := binary.BigEndian.Uint32(data)
			if n <= MaxFrame && uint64(len(data)-4) >= uint64(n) && (n == 0 || data[4] != binMagic) {
				if _, err := NewFrameReader(bytes.NewReader(data)).Read(); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("frame without the magic byte: err = %v, want ErrBadFrame", err)
				}
			}
		}
		r := NewFrameReader(bytes.NewReader(data))
		for i := 0; i < 8; i++ {
			_, err := r.Read()
			if err == nil {
				continue
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("unclassified read error: %v", err)
			}
			return
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

// FuzzCodecRoundTrip checks every envelope code's one body layout: the
// binary round trip gives the envelope back exactly, including nil-vs-empty
// bodies, queue-name compression and trace contexts, and re-encoding the
// decoded envelope is byte-identical.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(byte(0), "tasks.queue", uint64(0), []byte(`payload`), false, "17", "abcdef", "0123")
	f.Add(byte(0), "tasks."+string(NewUUID()), uint64(9), []byte{}, true, "", "", "")
	f.Add(byte(1), "results.group."+string(NewUUID()), uint64(1<<40), []byte("x"), false, "id", "NOT-HEX", "odd")
	f.Add(byte(2), "results."+string(NewUUID()), uint64(3), []byte(nil), true, "a", "ab", "")
	f.Add(byte(3), "mepcmd."+string(NewUUID()), uint64(1), []byte("body"), false, "", "ffff", "ee")
	f.Add(byte(4), "dlq.tasks.x", uint64(2), []byte("b"), true, "z", "", "")
	f.Add(byte(5), "q", uint64(0), []byte(nil), false, "", "", "")
	f.Add(byte(6), "tasks."+string(NewUUID()), uint64(1<<63), []byte(nil), false, "e", "", "")
	f.Add(byte(7), "", uint64(0), []byte(nil), true, "ok", "", "")
	f.Add(byte(8), "results."+string(NewUUID()), uint64(0), []byte(nil), false, "3", "", "")
	f.Add(byte(9), "boom", uint64(0), []byte("heartbeat"), false, "", "", "")
	f.Add(byte(10), "", uint64(0), []byte(nil), false, "4", "", "")
	f.Add(byte(11), "", uint64(0), []byte(nil), false, "7", "", "")
	f.Add(byte(12), "block-1", uint64(8), []byte(nil), false, "node-a", "", "")
	f.Add(byte(13), "", uint64(0), EncodeTask(&Task{ID: NewUUID(), Kind: KindPython}), false, "t", "", "")
	f.Add(byte(14), "", uint64(0), []byte{}, true, "r", "", "")
	f.Fuzz(func(t *testing.T, kind byte, queue string, tag uint64, body []byte, flag bool, id, traceID, spanID string) {
		env := Envelope{Type: EnvType(kind%byte(envTypeEnd-1) + 1), ID: id}
		tc := fuzzTrace(true, traceID, spanID)
		switch env.Type {
		case EnvPublish:
			env.Bin = &PublishBody{Queue: queue, Body: body}
		case EnvPublishBatch:
			env.Bin = &PublishBatchBody{Queue: queue, Bodies: [][]byte{body, nil, {}},
				Traces: []trace.Context{{}, tc, {}}}
		case EnvDeliveryBatch:
			env.Bin = &DeliveryBatchBody{Queue: queue,
				Items: []DeliveryItem{{Tag: tag, Body: body, Redelivered: flag, Trace: tc}, {Tag: tag + 1}}}
		case EnvAckBatch:
			env.Bin = &AckBatchBody{Queue: queue, Tags: []uint64{tag, tag + 1}}
		case EnvReject:
			env.Bin = &RejectBody{Queue: queue, Tag: tag}
		case EnvDeclare, EnvCancel, EnvDelete:
			env.Bin = &DeclareBody{Queue: queue}
		case EnvConsume:
			env.Bin = &ConsumeBody{Queue: queue, Prefetch: int(tag)}
		case EnvError:
			env.Bin = &ErrorBody{Message: queue}
		case EnvRegister:
			reg := &RegisterBody{BlockID: queue, Capacity: int(tag)}
			if flag {
				reg.Nodes = []string{id, "", traceID}
			}
			env.Bin = reg
		case EnvTask, EnvResult:
			env.Body = body
		}

		p, err := EncodeBinaryEnvelope(env)
		if err != nil {
			t.Fatalf("encode %s: %v", env.Type, err)
		}
		got, err := DecodeBinaryEnvelope(p)
		if err != nil {
			t.Fatalf("decode own %s encoding: %v", env.Type, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("round trip differs:\n  got: %#v\n want: %#v", got, env)
		}
		again, err := EncodeBinaryEnvelope(got)
		if err != nil || !bytes.Equal(again, p) {
			t.Fatalf("re-encoding differs (%v):\n  got: %x\n want: %x", err, again, p)
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
		{Type: EnvHeartbeat, ID: "9"},
		{Type: EnvRegister, Bin: &RegisterBody{BlockID: "b", Capacity: 4, Nodes: []string{"n0", "n1"}}},
		{Type: EnvConsume, ID: "2", Bin: &ConsumeBody{Queue: "tasks." + string(NewUUID()), Prefetch: 64}},
		{Type: EnvDeliveryBatch, Bin: &DeliveryBatchBody{Queue: "results." + string(NewUUID()), Items: []DeliveryItem{{Tag: 2,
			Body:  EncodeResult(&Result{TaskID: NewUUID(), State: StateSuccess, Output: []byte("3")}),
			Trace: trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}}}}},
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
