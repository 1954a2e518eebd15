package protocol

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewUUIDFormat(t *testing.T) {
	u := NewUUID()
	if !u.Valid() {
		t.Fatalf("NewUUID produced invalid UUID %q", u)
	}
	if len(u) != 36 {
		t.Fatalf("UUID length = %d, want 36", len(u))
	}
	// version nibble must be 4, variant high bits 10
	if u[14] != '4' {
		t.Errorf("version nibble = %c, want 4", u[14])
	}
	switch u[19] {
	case '8', '9', 'a', 'b':
	default:
		t.Errorf("variant nibble = %c, want one of 89ab", u[19])
	}
}

// TestNewUUIDOneAlloc: a fresh ID is one allocation, its string, and is
// always a canonical version 4, RFC 4122 variant UUID.
func TestNewUUIDOneAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { _ = NewUUID() }); allocs != 1 && !raceEnabled {
		t.Errorf("NewUUID: %.1f allocations, want 1", allocs)
	}
	for i := 0; i < 10000; i++ {
		u := NewUUID()
		raw, ok := u.Pack()
		if !ok || !u.Valid() || raw[6]>>4 != 4 || raw[8]>>6 != 2 {
			t.Fatalf("NewUUID = %q: valid %v, version %d, variant %b", u, ok, raw[6]>>4, raw[8]>>6)
		}
	}
}

func TestNewUUIDUnique(t *testing.T) {
	seen := make(map[UUID]bool)
	for i := 0; i < 2000; i++ {
		u := NewUUID()
		if seen[u] {
			t.Fatalf("duplicate UUID %q after %d draws", u, i)
		}
		seen[u] = true
	}
}

func TestUUIDValidRejects(t *testing.T) {
	bad := []UUID{
		"",
		"not-a-uuid",
		"00000000000000000000000000000000",      // no dashes
		"00000000-0000-0000-0000-00000000000",   // short
		"00000000-0000-0000-0000-0000000000000", // long
		"G0000000-0000-4000-8000-000000000000",  // non-hex
		"00000000_0000-4000-8000-000000000000",  // wrong separator
	}
	for _, u := range bad {
		if u.Valid() {
			t.Errorf("Valid(%q) = true, want false", u)
		}
	}
	if good := UUID("01234567-89ab-4def-8123-456789abcdef"); !good.Valid() {
		t.Errorf("Valid(%q) = false, want true", good)
	}
}

func TestTaskStateTerminal(t *testing.T) {
	cases := map[TaskState]bool{
		StateReceived:  false,
		StateWaiting:   false,
		StateDelivered: false,
		StateRunning:   false,
		StateSuccess:   true,
		StateFailed:    true,
		StateCancelled: true,
	}
	for s, want := range cases {
		if got := s.Terminal(); got != want {
			t.Errorf("%s.Terminal() = %v, want %v", s, got, want)
		}
	}
}

func TestResourceSpecNormalizeDefaults(t *testing.T) {
	n, err := ResourceSpec{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := ResourceSpec{NumNodes: 1, RanksPerNode: 1, NumRanks: 1}
	if n != want {
		t.Errorf("Normalize zero = %+v, want %+v", n, want)
	}
}

func TestResourceSpecNormalizeDerivations(t *testing.T) {
	cases := []struct {
		in, want ResourceSpec
	}{
		{ResourceSpec{NumNodes: 2, RanksPerNode: 3}, ResourceSpec{2, 3, 6}},
		{ResourceSpec{NumNodes: 2, NumRanks: 8}, ResourceSpec{2, 4, 8}},
		{ResourceSpec{NumRanks: 4}, ResourceSpec{1, 4, 4}},
		{ResourceSpec{NumNodes: 3}, ResourceSpec{3, 1, 3}},
		{ResourceSpec{NumNodes: 2, RanksPerNode: 2, NumRanks: 4}, ResourceSpec{2, 2, 4}},
	}
	for _, c := range cases {
		got, err := c.in.Normalize()
		if err != nil {
			t.Errorf("Normalize(%+v) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Normalize(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestResourceSpecNormalizeErrors(t *testing.T) {
	bad := []ResourceSpec{
		{NumNodes: 2, NumRanks: 5},                  // 5 ranks on 2 nodes
		{NumNodes: 2, RanksPerNode: 2, NumRanks: 5}, // inconsistent
		{NumNodes: -1},
		{RanksPerNode: -2},
		{NumRanks: -3},
	}
	for _, r := range bad {
		if _, err := r.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) succeeded, want error", r)
		}
	}
}

func TestResourceSpecNormalizeProperty(t *testing.T) {
	// Any successfully normalized spec satisfies nodes*rpn == ranks with
	// all fields positive.
	f := func(nodes, rpn, ranks uint8) bool {
		in := ResourceSpec{NumNodes: int(nodes % 16), RanksPerNode: int(rpn % 16), NumRanks: int(ranks % 64)}
		out, err := in.Normalize()
		if err != nil {
			return true // rejection is fine; acceptance must be consistent
		}
		return out.NumNodes > 0 && out.RanksPerNode > 0 &&
			out.NumNodes*out.RanksPerNode == out.NumRanks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	spec := ShellSpec{Command: "echo hi", Sandbox: true, WalltimeSec: 1.5}
	b, err := EncodePayload(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got ShellSpec
	if err := DecodePayload(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Command != spec.Command || got.Sandbox != spec.Sandbox || got.WalltimeSec != spec.WalltimeSec {
		t.Errorf("round trip = %+v, want %+v", got, spec)
	}
}

func TestDecodePayloadError(t *testing.T) {
	var s ShellSpec
	if err := DecodePayload([]byte("{nope"), &s); err == nil {
		t.Error("DecodePayload accepted invalid JSON")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	task := Task{ID: NewUUID(), Kind: KindShell, Payload: []byte(`{"command":"ls"}`)}
	if err := w.Write(Envelope{Type: EnvTask, ID: string(task.ID), Body: EncodeTask(&task)}); err != nil {
		t.Fatal(err)
	}
	r := NewFrameReader(&buf)
	got, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != EnvTask || got.ID != string(task.ID) {
		t.Errorf("envelope header = %q/%q, want %q/%q", got.Type, got.ID, EnvTask, task.ID)
	}
	t2, err := DecodeTask(got.Body)
	if err != nil {
		t.Fatal(err)
	}
	if t2.ID != task.ID || t2.Kind != task.Kind {
		t.Errorf("decoded task = %+v, want %+v", t2, task)
	}
}

func TestFrameMultipleSequential(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	for i := 0; i < 100; i++ {
		if err := w.Write(Envelope{Type: EnvAckBatch, Bin: &AckBatchBody{Queue: "q", Tags: []uint64{uint64(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewFrameReader(&buf)
	for i := 0; i < 100; i++ {
		env, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seq := env.Bin.(*AckBatchBody).Tags[0]; seq != uint64(i) {
			t.Fatalf("frame %d out of order: got seq %d", i, seq)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("after last frame Read err = %v, want io.EOF", err)
	}
}

func TestFrameReaderEOFOnEmpty(t *testing.T) {
	r := NewFrameReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read on empty stream = %v, want io.EOF", err)
	}
}

func TestFrameReaderTruncatedHeader(t *testing.T) {
	r := NewFrameReader(strings.NewReader("\x00\x00"))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read with truncated header = %v, want io.EOF", err)
	}
}

func TestFrameReaderTruncatedBody(t *testing.T) {
	// Header says 100 bytes, provide 3.
	r := NewFrameReader(strings.NewReader("\x00\x00\x00\x64abc"))
	if _, err := r.Read(); err == nil {
		t.Error("Read with truncated body succeeded")
	}
}

func TestFrameReaderOversized(t *testing.T) {
	var hdr bytes.Buffer
	hdr.Write([]byte{0xff, 0xff, 0xff, 0xff})
	r := NewFrameReader(&hdr)
	if _, err := r.Read(); err != ErrFrameTooLarge {
		t.Errorf("Read oversized = %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameReaderRefusesJSON pins the one wire form: what FrameWriter
// writes starts with the magic byte, and a JSON envelope is refused.
func TestFrameReaderRefusesJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).Write(Envelope{Type: EnvOK, ID: "1"}); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != binMagic {
		t.Fatalf("first payload byte = %#x, want %#x", got, binMagic)
	}
	body := `{"type":"ok","id":"1"}`
	frame := append([]byte{0, 0, 0, byte(len(body))}, body...)
	if _, err := NewFrameReader(bytes.NewReader(frame)).Read(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("JSON frame: err = %v, want ErrBadFrame", err)
	}
}

func TestFrameWriterOversized(t *testing.T) {
	w := NewFrameWriter(io.Discard)
	env := Envelope{Type: EnvTask, Body: make([]byte, MaxFrame+1)}
	if err := w.Write(env); err != ErrFrameTooLarge {
		t.Errorf("Write oversized = %v, want ErrFrameTooLarge", err)
	}
}

func TestFramePropertyRoundTrip(t *testing.T) {
	f := func(code uint8, id string, body []byte) bool {
		typ := []EnvType{EnvTask, EnvResult}[code%2]
		env := Envelope{Type: typ, ID: id, Body: body}
		var buf bytes.Buffer
		w := NewFrameWriter(&buf)
		if err := w.Write(env); err != nil {
			return false
		}
		got, err := NewFrameReader(&buf).Read()
		if err != nil {
			return false
		}
		return got.Type == typ && got.ID == id && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEveryCodeHasOneBody pins the code table: every code round-trips with
// its one body type, and code 0, unknown codes and a body that does not
// match its code are refused with ErrBadFrame.
func TestEveryCodeHasOneBody(t *testing.T) {
	queue := TaskQueue(NewUUID())
	cases := []struct {
		env  Envelope
		want any // the decoded Bin, or nil for a bodiless or opaque code
	}{
		{Envelope{Type: EnvPublish, ID: "1", Bin: &PublishBody{Queue: queue, Body: []byte("m")}}, &PublishBody{}},
		{Envelope{Type: EnvPublishBatch, ID: "2", Bin: &PublishBatchBody{Queue: queue, Bodies: [][]byte{[]byte("m")}}}, &PublishBatchBody{}},
		{Envelope{Type: EnvDeliveryBatch, Bin: &DeliveryBatchBody{Queue: queue, Items: []DeliveryItem{{Tag: 1}}}}, &DeliveryBatchBody{}},
		{Envelope{Type: EnvAckBatch, ID: "3", Bin: &AckBatchBody{Queue: queue, Tags: []uint64{1}}}, &AckBatchBody{}},
		{Envelope{Type: EnvReject, ID: "4", Bin: &RejectBody{Queue: queue, Tag: 1}}, &RejectBody{}},
		{Envelope{Type: EnvDeclare, ID: "5", Bin: &DeclareBody{Queue: queue}}, &DeclareBody{}},
		{Envelope{Type: EnvConsume, ID: "6", Bin: &ConsumeBody{Queue: queue, Prefetch: 64}}, &ConsumeBody{}},
		{Envelope{Type: EnvCancel, ID: "7", Bin: &DeclareBody{Queue: queue}}, &DeclareBody{}},
		{Envelope{Type: EnvDelete, ID: "8", Bin: &DeclareBody{Queue: queue}}, &DeclareBody{}},
		{Envelope{Type: EnvHeartbeat, ID: "9"}, nil},
		{Envelope{Type: EnvOK, ID: "9"}, nil},
		{Envelope{Type: EnvError, ID: "10", Bin: &ErrorBody{Message: "boom"}}, &ErrorBody{}},
		{Envelope{Type: EnvRegister, Bin: &RegisterBody{BlockID: "b", Capacity: 4, Nodes: []string{"n"}}}, &RegisterBody{}},
		{Envelope{Type: EnvTask, ID: "t", Body: EncodeTask(&Task{ID: NewUUID()})}, nil},
		{Envelope{Type: EnvResult, ID: "r", Body: EncodeResult(&Result{TaskID: NewUUID()})}, nil},
	}
	seen := map[EnvType]bool{}
	for _, c := range cases {
		seen[c.env.Type] = true
		p, err := EncodeBinaryEnvelope(c.env)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.env.Type, err)
		}
		got, err := DecodeBinaryEnvelope(p)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.env.Type, err)
		}
		if reflect.TypeOf(got.Bin) != reflect.TypeOf(c.want) || !reflect.DeepEqual(got, c.env) {
			t.Errorf("%s: decoded %#v, want %#v", c.env.Type, got, c.env)
		}
		if c.env.Body == nil && c.want == nil {
			// A bodiless frame is its header alone: a trailing body byte is refused.
			if _, err := DecodeBinaryEnvelope(append(p, 0)); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s with a body: err = %v, want ErrBadFrame", c.env.Type, err)
			}
		} else if _, err := DecodeBinaryEnvelope(p[:4+len(c.env.ID)+min(len(c.env.ID), 1)]); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s without its body: err = %v, want ErrBadFrame", c.env.Type, err)
		}
	}
	for code := EnvType(1); code.valid(); code++ {
		if !seen[code] {
			t.Errorf("code %d (%s) has no case", code, code)
		}
	}

	for _, code := range []byte{0, byte(envTypeEnd), 0xFF} {
		if _, err := DecodeBinaryEnvelope([]byte{binMagic, BinVersion, code, 0}); !errors.Is(err, ErrBadFrame) {
			t.Errorf("code %d: err = %v, want ErrBadFrame", code, err)
		}
		if _, err := EncodeBinaryEnvelope(Envelope{Type: EnvType(code)}); !errors.Is(err, ErrBadFrame) {
			t.Errorf("encode code %d: err = %v, want ErrBadFrame", code, err)
		}
	}
	for _, env := range []Envelope{
		{Type: EnvDeclare, Bin: &ErrorBody{Message: "x"}},
		{Type: EnvDeclare},
		{Type: EnvReject, Bin: &AckBatchBody{Queue: "q"}},
		{Type: EnvOK, Body: []byte("x")},
		{Type: EnvHeartbeat, Bin: &DeclareBody{Queue: "q"}},
		{Type: EnvTask, Bin: &DeclareBody{Queue: "q"}},
		{Type: EnvPublish, Body: []byte("x"), Bin: &PublishBody{Queue: "q"}},
	} {
		if _, err := EncodeBinaryEnvelope(env); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s carrying %T / %q: err = %v, want ErrBadFrame", env.Type, env.Bin, env.Body, err)
		}
	}
}
