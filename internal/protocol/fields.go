package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// Writer and Reader expose the binary codec's field primitives (binWriter,
// binReader) to codecs outside this package: the web service's submit
// header and the task-ID reply below. Both are canonical: a field has one
// spelling, so a body that decodes re-encodes to the same bytes.

// Writer appends binary fields to a buffer.
type Writer struct{ w binWriter }

// NewWriter returns a Writer that appends to buf.
func NewWriter(buf *bytes.Buffer) *Writer { return &Writer{w: binWriter{buf: buf}} }

// Byte writes one byte.
func (w *Writer) Byte(b byte) { w.w.u8(b) }

// Uvarint writes v as a uvarint.
func (w *Writer) Uvarint(v uint64) { w.w.uvarint(v) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) { w.w.str(s) }

// Chunk writes a length-prefixed byte slice.
func (w *Writer) Chunk(b []byte) { w.w.chunk(b) }

// UUID writes u as 0 and its 16 raw bytes when canonical, and as
// uvarint(len+1) and the text verbatim otherwise.
func (w *Writer) UUID(u UUID) { w.w.uuid(u) }

// Raw writes b as it is.
func (w *Writer) Raw(b []byte) { w.w.buf.Write(b) }

// Reader reads what Writer writes, bounds-checked. The first malformed or
// non-canonical field latches Err and every later read returns a zero
// value, so a decoder checks once at the end. A string it returns (Str,
// UUID) is an allocation of its own: a decoder's caller may keep one for
// as long as it likes without pinning anything else.
type Reader struct{ r bodyReader }

// NewReader returns a Reader over p.
func NewReader(p []byte) *Reader { return &Reader{r: bodyReader{in: binReader{p: p}}} }

// Err returns the first error, every one wrapping ErrBadFrame.
func (r *Reader) Err() error { return r.r.err }

// Fail latches an error (when there is none yet) for a field that read
// fine but breaks the caller's own rules.
func (r *Reader) Fail(format string, args ...any) {
	r.r.ok(fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...))
}

// Done fails a reader with bytes left after what was meant to be the last
// field and returns Err.
func (r *Reader) Done(what string) error { return r.r.done(what) }

// Byte reads one byte.
func (r *Reader) Byte() byte { return r.r.u8() }

// Uvarint reads a uvarint, refusing one spelled in more bytes than it needs.
func (r *Reader) Uvarint() uint64 {
	at := r.r.in.off
	v := r.r.uvarint()
	if n := r.r.in.off - at; r.r.err == nil && n > 1 && r.r.in.p[at+n-1] == 0 {
		r.Fail("overlong varint at byte %d", at)
	}
	return v
}

// Count reads a uvarint item count no larger than the bytes left (each item
// takes at least one).
func (r *Reader) Count() int {
	v := r.Uvarint()
	if r.r.err == nil && v > uint64(r.r.in.rem()) {
		r.Fail("count %d exceeds remaining %d bytes", v, r.r.in.rem())
		return 0
	}
	return int(v)
}

// Take returns the next n bytes without copying them.
func (r *Reader) Take(n int) []byte { return r.r.take(n) }

// Chunk reads a length-prefixed byte slice without copying it.
func (r *Reader) Chunk() []byte {
	n := r.Uvarint()
	if r.r.err == nil && n > uint64(r.r.in.rem()) {
		r.Fail("length %d exceeds remaining %d bytes", n, r.r.in.rem())
		return nil
	}
	return r.Take(int(n))
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Chunk()) }

// UUID reads what Writer.UUID writes.
func (r *Reader) UUID() UUID {
	raw, text := r.uuid()
	if raw != nil {
		return uuidString(raw)
	}
	return UUID(text)
}

// uuid reads a uuid field without copying it: raw is its 16 packed bytes,
// or text its verbatim spelling. Canonical text written verbatim is
// refused: Writer packs it.
func (r *Reader) uuid() (raw, text []byte) {
	n := r.Uvarint()
	switch {
	case r.r.err != nil:
		return nil, nil
	case n == 0:
		return r.Take(16), nil
	case n-1 > uint64(r.r.in.rem()):
		r.Fail("uuid length %d exceeds remaining %d bytes", n-1, r.r.in.rem())
		return nil, nil
	}
	text = r.Take(int(n - 1))
	if _, ok := pack(text); ok {
		r.Fail("canonical uuid %s written verbatim", text)
		return nil, nil
	}
	return nil, text
}

// TaskIDsMediaType labels a task-ID list: uvarint(n) ‖ n × uuid, each as
// Writer.UUID writes it. POST /v2/submit answers a binary submit with one.
const TaskIDsMediaType = "application/x-gc-task-ids"

// AppendTaskIDs appends ids as a TaskIDsMediaType body.
func AppendTaskIDs(buf *bytes.Buffer, ids []UUID) {
	buf.Grow(binary.MaxVarintLen64 + 17*len(ids))
	w := NewWriter(buf)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.UUID(id)
	}
}

// DecodeTaskIDs decodes a TaskIDsMediaType body in two allocations: the
// slice, and one string holding every ID's text.
func DecodeTaskIDs(b []byte) ([]UUID, error) {
	r := NewReader(b)
	n := r.Count()
	if r.Err() != nil {
		return nil, r.Err()
	}
	ids := make([]UUID, n)
	// Room for every ID the rest of b can hold: a packed one (17 bytes)
	// becomes 36, a verbatim one its own length. So the arena never grows,
	// and each ID can be cut from it as soon as it is written.
	var arena strings.Builder
	arena.Grow(len(b)*36/17 + 36)
	for i := range ids {
		raw, text := r.uuid()
		if r.Err() != nil {
			return nil, r.Err()
		}
		lo := arena.Len()
		if raw != nil {
			var buf [36]byte
			arena.Write(appendUUID(buf[:0], raw))
		} else {
			arena.Write(text)
		}
		ids[i] = UUID(span{lo, arena.Len()}.in(arena.String()))
	}
	if err := r.Done("task-ID list"); err != nil {
		return nil, err
	}
	return ids, nil
}
