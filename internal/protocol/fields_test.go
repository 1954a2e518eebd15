package protocol

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// TestTaskIDsRoundTrip: a task-ID list decodes to the IDs it was written
// from, canonical or not, and 256 IDs decode in two allocations.
func TestTaskIDsRoundTrip(t *testing.T) {
	for _, ids := range [][]UUID{
		{},
		{NewUUID()},
		{NewUUID(), "not-a-uuid", "", "AAAAAAAA-AAAA-4AAA-8AAA-AAAAAAAAAAAA", NewUUID()},
	} {
		var buf bytes.Buffer
		AppendTaskIDs(&buf, ids)
		got, err := DecodeTaskIDs(buf.Bytes())
		if err != nil || !reflect.DeepEqual(got, ids) {
			t.Errorf("%q decodes to %q (%v)", ids, got, err)
		}
	}
	ids := make([]UUID, 256)
	for i := range ids {
		ids[i] = NewUUID()
	}
	var buf bytes.Buffer
	AppendTaskIDs(&buf, ids)
	body := buf.Bytes()
	if allocs := testing.AllocsPerRun(50, func() { _, _ = DecodeTaskIDs(body) }); allocs > 2 {
		t.Errorf("decoding %d IDs: %.0f allocations, want 2", len(ids), allocs)
	}
}

// FuzzSubmitIDs hardens the SDK's reader of the submit reply: no panic, an
// allocation bounded by the body, every refusal an ErrBadFrame, and what it
// accepts re-encodes to the same bytes (a list has one spelling).
func FuzzSubmitIDs(f *testing.F) {
	var buf bytes.Buffer
	AppendTaskIDs(&buf, []UUID{NewUUID(), "x", NewUUID()})
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(bytes.Clone(valid), 0))
	f.Add([]byte{0})
	f.Add([]byte{0x80, 0x00})                            // overlong count
	f.Add([]byte{1, 37, '0', '1', '2', '3', '4', '5'})   // length past the body
	f.Add(append([]byte{1, 37}, NewUUID()...))           // a canonical ID spelled out
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}) // count past the body
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ids, err := DecodeTaskIDs(body)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(body)) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("refusal %v is not ErrBadFrame", err)
			}
			return
		}
		var again bytes.Buffer
		AppendTaskIDs(&again, ids)
		if !bytes.Equal(again.Bytes(), body) {
			t.Fatalf("re-encoding differs:\n in:  %q\n out: %q", body, again.Bytes())
		}
	})
}
