package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"globuscompute/internal/trace"
)

// Binary envelope codec: the one encoding of every framed connection. Each
// envelope type has a code, and the code fixes the body's one layout. The
// structured bodies (wire.go) encode field by field: varint lengths, raw
// bytes for message bodies, raw 16-byte UUIDs inside well-known queue names,
// and an inline trace context per message. Task and result frames carry the
// binary bodies of body.go as opaque bytes; ok and heartbeat carry none.
//
// The outer transport is a 4-byte big-endian length prefix, and every
// payload starts with the magic byte 0xBF, so a JSON envelope ('{') is
// refused at the first byte instead of misparsed.

// binMagic is the first payload byte of every frame.
const binMagic = 0xBF

// BinVersion is the binary frame format version. Readers reject frames with
// a version they do not know; bumping it is a wire change that old peers
// refuse loudly instead of misparsing. Version 3 gives every envelope type a
// code and one binary body; version 2 still carried some bodies as JSON.
const BinVersion = 3

// binFlagID is the one envelope flag: a correlation ID follows. A frame
// that sets any other bit is refused.
const binFlagID = 1 << 0

// Queue names: every hot queue is "<prefix><uuid>".
const (
	taskQueuePrefix        = "tasks."
	resultQueuePrefix      = "results."
	groupResultQueuePrefix = "results.group."
	commandQueuePrefix     = "mepcmd."
)

// TaskQueue names the queue an endpoint's agent consumes its tasks from.
func TaskQueue(ep UUID) string { return taskQueuePrefix + string(ep) }

// ResultQueue names the queue an endpoint's agent publishes results to.
func ResultQueue(ep UUID) string { return resultQueuePrefix + string(ep) }

// GroupResultQueue names the stream an executor's task group resolves from.
func GroupResultQueue(group UUID) string { return groupResultQueuePrefix + string(group) }

// CommandQueue names a multi-user endpoint's start-endpoint command queue.
func CommandQueue(mep UUID) string { return commandQueuePrefix + string(mep) }

// Queue-name compression codes: the prefix becomes one byte and the UUID its
// 16 raw bytes. Code 0 is an uncompressed string (DLQ names, test queues,
// anything else).
var queuePrefixes = []string{
	1: taskQueuePrefix,
	2: groupResultQueuePrefix, // must precede resultQueuePrefix (longest match wins)
	3: resultQueuePrefix,
	4: commandQueuePrefix,
}

// ErrBadFrame wraps every binary decode failure.
var ErrBadFrame = fmt.Errorf("protocol: bad binary frame")

// binWriter appends binary frame fields to a bytes.Buffer.
type binWriter struct {
	buf     *bytes.Buffer
	scratch [binary.MaxVarintLen64]byte
}

func (w *binWriter) u8(b byte) { w.buf.WriteByte(b) }

func (w *binWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.buf.Write(w.scratch[:n])
}

// str writes a length-prefixed string.
func (w *binWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

// chunk writes a length-prefixed byte slice (nil and empty both write 0).
func (w *binWriter) chunk(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf.Write(b)
}

// bytesNil writes a length-prefixed byte slice that distinguishes nil from
// empty: 0 = nil, n+1 = n bytes, so a decoded body equals the encoded one.
func (w *binWriter) bytesNil(b []byte) {
	if b == nil {
		w.uvarint(0)
		return
	}
	w.uvarint(uint64(len(b)) + 1)
	w.buf.Write(b)
}

// varint writes a zigzag varint.
func (w *binWriter) varint(v int64) {
	n := binary.PutVarint(w.scratch[:], v)
	w.buf.Write(w.scratch[:n])
}

// uuid writes u as 0 and its 16 raw bytes when canonical, and as
// uvarint(len+1) and the string verbatim otherwise.
func (w *binWriter) uuid(u UUID) {
	if raw, ok := u.Pack(); ok {
		w.u8(0)
		w.buf.Write(raw[:])
		return
	}
	w.uvarint(uint64(len(u)) + 1)
	w.buf.WriteString(string(u))
}

// code writes a one-byte code, or 0 and s when the value has none.
func (w *binWriter) code(c byte, s string) {
	w.u8(c)
	if c == 0 {
		w.str(s)
	}
}

// Trace-context flag bits.
const (
	tcFlagTraceRaw = 1 << 0 // trace ID as raw bytes, not hex text
	tcFlagSpan     = 1 << 1 // span ID present
	tcFlagSpanRaw  = 1 << 2 // span ID as raw bytes
)

// Sizes of the packed trace context this tree writes: flags, then each ID
// length-prefixed. A packed context with a span is tcPackedSize bytes, its
// trace ID at offset tcTraceAt and its span ID at tcSpanAt.
const (
	tcTraceAt    = 2
	tcSpanAt     = tcTraceAt + len(trace.TraceID{}) + 1
	tcPackedSize = tcSpanAt + len(trace.SpanID{})
)

// traceCtx writes a valid trace context as raw IDs: flags, uvarint(16) and
// the trace ID, then uvarint(8) and the span ID when there is one.
func (w *binWriter) traceCtx(tc trace.Context) {
	if tc.SpanID.IsZero() {
		w.u8(tcFlagTraceRaw)
		w.chunk(tc.TraceID[:])
		return
	}
	w.u8(tcFlagTraceRaw | tcFlagSpan | tcFlagSpanRaw)
	w.chunk(tc.TraceID[:])
	w.chunk(tc.SpanID[:])
}

// queue writes a queue name, compressing "<known-prefix><uuid>" to prefix
// code + 16 raw UUID bytes.
func (w *binWriter) queue(q string) {
	for code, prefix := range queuePrefixes {
		if code == 0 || prefix == "" {
			continue
		}
		rest, ok := cutPrefix(q, prefix)
		if !ok {
			continue
		}
		raw, ok := UUID(rest).Pack()
		if !ok {
			continue
		}
		w.u8(byte(code))
		w.buf.Write(raw[:])
		return
	}
	w.u8(0)
	w.str(q)
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
}

const hexDigits = "0123456789abcdef"

// hexValue maps a lowercase hex digit to its value and every other byte to
// 0xFF.
var hexValue = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xFF
	}
	for i, c := range hexDigits {
		t[c] = byte(i)
	}
	return t
}()

// uuidHexAt lists the offsets of a canonical UUID's 32 hex digits.
var uuidHexAt = [32]uint8{0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 14, 15, 16, 17,
	19, 20, 21, 22, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35}

// Pack returns the 16 raw bytes a canonical UUID spells; ok is false for
// anything else.
func (u UUID) Pack() (raw [16]byte, ok bool) { return pack(u) }

// pack is Pack for a UUID's text as a string or as bytes.
func pack[T ~string | ~[]byte](u T) (raw [16]byte, ok bool) {
	if len(u) != 36 || u[8] != '-' || u[13] != '-' || u[18] != '-' || u[23] != '-' {
		return raw, false
	}
	for i := range raw {
		hi, lo := hexValue[u[uuidHexAt[2*i]]], hexValue[u[uuidHexAt[2*i+1]]]
		if hi|lo > 15 {
			return raw, false
		}
		raw[i] = hi<<4 | lo
	}
	return raw, true
}

// appendUUID appends the canonical dashed form of 16 raw bytes.
func appendUUID(dst, raw []byte) []byte {
	for i, b := range raw {
		if i == 4 || i == 6 || i == 8 || i == 10 {
			dst = append(dst, '-')
		}
		dst = append(dst, hexDigits[b>>4], hexDigits[b&15])
	}
	return dst
}

// uuidString unpacks 16 raw bytes into the canonical dashed form.
func uuidString(b []byte) UUID {
	var buf [36]byte
	return UUID(appendUUID(buf[:0], b))
}

// appendBinaryEnvelope renders env as a frame payload into buf (after the
// caller's 4-byte length placeholder). A body that does not match env's
// code is an error.
func appendBinaryEnvelope(buf *bytes.Buffer, env Envelope) error {
	if !env.Type.valid() {
		return fmt.Errorf("%w: unknown type code %d", ErrBadFrame, byte(env.Type))
	}
	kind := envTypes[env.Type].body
	if (kind != bodyBytes && env.Body != nil) || (kind != bodyStructured && env.Bin != nil) {
		return fmt.Errorf("%w: %s envelope carries a body of another type", ErrBadFrame, env.Type)
	}
	w := &binWriter{buf: buf}
	w.u8(binMagic)
	w.u8(BinVersion)
	w.u8(byte(env.Type))
	if env.ID == "" {
		w.u8(0)
	} else {
		w.u8(binFlagID)
		w.str(env.ID)
	}
	switch kind {
	case bodyBytes:
		w.bytesNil(env.Body)
	case bodyStructured:
		return encodeBinBody(w, env)
	}
	return nil
}

// EncodeBinaryEnvelope renders env as a standalone frame payload (no length
// prefix) — the exact bytes a FrameWriter puts after the 4-byte header.
// Used by tests, the codec fuzzers and the benchmark's codec probe.
func EncodeBinaryEnvelope(env Envelope) ([]byte, error) {
	var buf bytes.Buffer
	if err := appendBinaryEnvelope(&buf, env); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeBinBody writes env's structured body in its code's layout.
func encodeBinBody(w *binWriter, env Envelope) error {
	switch b := env.Bin.(type) {
	case *PublishBody:
		if env.Type != EnvPublish {
			break
		}
		w.queue(b.Queue)
		w.bytesNil(b.Body)
		return nil
	case *PublishBatchBody:
		if env.Type != EnvPublishBatch {
			break
		}
		w.queue(b.Queue)
		if b.Bodies == nil {
			w.uvarint(0)
		} else {
			w.uvarint(uint64(len(b.Bodies)) + 1)
			for _, body := range b.Bodies {
				w.bytesNil(body)
			}
		}
		if b.Traces == nil {
			w.uvarint(0)
		} else {
			w.uvarint(uint64(len(b.Traces)) + 1)
			for _, tc := range b.Traces {
				if !tc.Valid() {
					w.u8(0)
					continue
				}
				w.u8(1)
				w.traceCtx(tc)
			}
		}
		return nil
	case *DeliveryBatchBody:
		if env.Type != EnvDeliveryBatch {
			break
		}
		w.queue(b.Queue)
		if b.Items == nil {
			w.uvarint(0)
		} else {
			w.uvarint(uint64(len(b.Items)) + 1)
			for i := range b.Items {
				it := &b.Items[i]
				w.uvarint(it.Tag)
				w.bytesNil(it.Body)
				var f byte
				if it.Redelivered {
					f |= 1
				}
				if it.Trace.Valid() {
					f |= 2
				}
				w.u8(f)
				if it.Trace.Valid() {
					w.traceCtx(it.Trace)
				}
			}
		}
		return nil
	case *AckBatchBody:
		if env.Type != EnvAckBatch {
			break
		}
		w.queue(b.Queue)
		if b.Tags == nil {
			w.uvarint(0)
		} else {
			w.uvarint(uint64(len(b.Tags)) + 1)
			for _, t := range b.Tags {
				w.uvarint(t)
			}
		}
		return nil
	case *RejectBody:
		if env.Type != EnvReject {
			break
		}
		w.queue(b.Queue)
		w.uvarint(b.Tag)
		return nil
	case *DeclareBody:
		if env.Type != EnvDeclare && env.Type != EnvCancel && env.Type != EnvDelete {
			break
		}
		w.queue(b.Queue)
		return nil
	case *ConsumeBody:
		if env.Type != EnvConsume {
			break
		}
		w.queue(b.Queue)
		w.varint(int64(b.Prefetch))
		return nil
	case *ErrorBody:
		if env.Type != EnvError {
			break
		}
		w.str(b.Message)
		return nil
	case *RegisterBody:
		if env.Type != EnvRegister {
			break
		}
		w.str(b.BlockID)
		w.varint(int64(b.Capacity))
		if b.Nodes == nil {
			w.uvarint(0)
		} else {
			w.uvarint(uint64(len(b.Nodes)) + 1)
			for _, n := range b.Nodes {
				w.str(n)
			}
		}
		return nil
	}
	return fmt.Errorf("%w: %s envelope cannot carry %T", ErrBadFrame, env.Type, env.Bin)
}

// binReader is a bounds-checked cursor over one binary frame payload. Every
// read returns an error instead of panicking on truncated or corrupt input,
// and length fields are validated against the remaining payload before
// allocation so a hostile frame cannot force a huge allocation.
type binReader struct {
	p   []byte
	off int
}

func (r *binReader) rem() int { return len(r.p) - r.off }

func (r *binReader) u8() (byte, error) {
	if r.off >= len(r.p) {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrBadFrame, r.off)
	}
	b := r.p[r.off]
	r.off++
	return b, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at byte %d", ErrBadFrame, r.off)
	}
	r.off += n
	return v, nil
}

// int reads a zigzag varint.
func (r *binReader) int() (int, error) {
	v, n := binary.Varint(r.p[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at byte %d", ErrBadFrame, r.off)
	}
	r.off += n
	return int(v), nil
}

// length reads a uvarint and validates it fits in the remaining payload.
func (r *binReader) length() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.rem()) {
		return 0, fmt.Errorf("%w: length %d exceeds remaining %d bytes", ErrBadFrame, v, r.rem())
	}
	return int(v), nil
}

// count reads an item count and validates it against the remaining payload
// (every item costs at least one byte).
func (r *binReader) count() (n int, present bool, err error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, false, err
	}
	if v == 0 {
		return 0, false, nil
	}
	v--
	if v > uint64(r.rem()) {
		return 0, false, fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrBadFrame, v, r.rem())
	}
	return int(v), true, nil
}

// take returns n raw payload bytes without copying; callers that retain the
// bytes must copy (the frame buffer is reused).
func (r *binReader) take(n int) ([]byte, error) {
	if n > r.rem() {
		return nil, fmt.Errorf("%w: truncated at byte %d (want %d more)", ErrBadFrame, r.off, n)
	}
	b := r.p[r.off : r.off+n]
	r.off += n
	return b, nil
}

// chunk reads a slice written by binWriter.chunk without copying it.
func (r *binReader) chunk() ([]byte, error) {
	n, err := r.length()
	if err != nil {
		return nil, err
	}
	return r.take(n)
}

func (r *binReader) str() (string, error) {
	b, err := r.chunk()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// bytesNil reads a nil-distinguishing byte slice, copying out of the frame
// buffer.
func (r *binReader) bytesNil() ([]byte, error) {
	n, present, err := r.count()
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, nil
	}
	if n == 0 {
		return []byte{}, nil // present-but-empty, distinct from nil
	}
	b, err := r.take(n)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

func (r *binReader) bool01() (bool, error) {
	b, err := r.u8()
	if err != nil {
		return false, err
	}
	return b != 0, nil
}

// traceCtx reads a trace context: this tree's packed form (packed reports
// it, exactly as traceCtx writes it with a span), or the form older writers
// used for IDs that were not lower-case hex, the ID text verbatim. An ID
// that is not 16 (trace) or 8 (span) bytes, packed or as hex text, or a zero
// trace ID leaves the zero Context: a malformed context is no context, not a
// bad frame.
func (r *binReader) traceCtx() (tc trace.Context, packed bool, err error) {
	flags, err := r.u8()
	if err != nil {
		return tc, false, err
	}
	tid, err := r.chunk()
	if err != nil {
		return tc, false, err
	}
	var sid []byte
	if flags&tcFlagSpan != 0 {
		if sid, err = r.chunk(); err != nil {
			return tc, false, err
		}
	}
	if !readID(tc.TraceID[:], tid, flags&tcFlagTraceRaw != 0) || !readID(tc.SpanID[:], sid, flags&tcFlagSpanRaw != 0) ||
		!tc.Valid() {
		return trace.Context{}, false, nil
	}
	packed = flags == tcFlagTraceRaw|tcFlagSpan|tcFlagSpanRaw && len(sid) == len(tc.SpanID)
	return tc, packed, nil
}

// readID fills dst from one encoded ID, raw or hex text, reporting whether
// it had dst's size. An absent (empty) ID leaves dst zero and is fine.
func readID(dst, b []byte, raw bool) bool {
	switch {
	case len(b) == 0:
		return true
	case raw && len(b) == len(dst):
		copy(dst, b)
		return true
	case !raw && len(b) == 2*len(dst):
		_, err := hex.Decode(dst, b)
		return err == nil
	}
	return false
}

func (r *binReader) queue() (string, error) {
	code, err := r.u8()
	if err != nil {
		return "", err
	}
	if code == 0 {
		return r.str()
	}
	if int(code) >= len(queuePrefixes) || queuePrefixes[code] == "" {
		return "", fmt.Errorf("%w: unknown queue prefix code %d", ErrBadFrame, code)
	}
	raw, err := r.take(16)
	if err != nil {
		return "", err
	}
	return queuePrefixes[code] + string(uuidString(raw)), nil
}

// DecodeBinaryEnvelope parses one frame payload (including the magic byte).
// A structured body lands in Envelope.Bin as its code's type, an opaque one
// in Envelope.Body. It never panics on truncated or corrupt input and every
// error wraps ErrBadFrame.
func DecodeBinaryEnvelope(p []byte) (Envelope, error) {
	r := &binReader{p: p}
	magic, err := r.u8()
	if err != nil {
		return Envelope{}, err
	}
	if magic != binMagic {
		return Envelope{}, fmt.Errorf("%w: bad magic 0x%02x", ErrBadFrame, magic)
	}
	ver, err := r.u8()
	if err != nil {
		return Envelope{}, err
	}
	if ver != BinVersion {
		return Envelope{}, fmt.Errorf("%w: unsupported version %d (have %d)", ErrBadFrame, ver, BinVersion)
	}
	code, err := r.u8()
	if err != nil {
		return Envelope{}, err
	}
	env := Envelope{Type: EnvType(code)}
	if !env.Type.valid() {
		return Envelope{}, fmt.Errorf("%w: unknown type code %d", ErrBadFrame, code)
	}
	flags, err := r.u8()
	if err != nil {
		return Envelope{}, err
	}
	if flags&^binFlagID != 0 {
		return Envelope{}, fmt.Errorf("%w: unknown frame flags %#x", ErrBadFrame, flags&^binFlagID)
	}
	if flags&binFlagID != 0 {
		if env.ID, err = r.str(); err != nil {
			return Envelope{}, err
		}
	}
	switch envTypes[env.Type].body {
	case bodyBytes:
		if env.Body, err = r.bytesNil(); err != nil {
			return Envelope{}, err
		}
	case bodyStructured:
		if env.Bin, err = decodeBinBody(r, env.Type); err != nil {
			return Envelope{}, err
		}
	}
	if r.rem() != 0 {
		return Envelope{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, r.rem())
	}
	return env, nil
}

// decodeBinBody reads the structured body of code t.
func decodeBinBody(r *binReader, t EnvType) (any, error) {
	var err error
	switch t {
	case EnvPublish:
		b := &PublishBody{}
		if b.Queue, err = r.queue(); err != nil {
			return nil, err
		}
		if b.Body, err = r.bytesNil(); err != nil {
			return nil, err
		}
		return b, nil
	case EnvPublishBatch:
		b := &PublishBatchBody{}
		if b.Queue, err = r.queue(); err != nil {
			return nil, err
		}
		n, present, err := r.count()
		if err != nil {
			return nil, err
		}
		if present {
			b.Bodies = make([][]byte, n)
			for i := range b.Bodies {
				if b.Bodies[i], err = r.bytesNil(); err != nil {
					return nil, err
				}
			}
		}
		n, present, err = r.count()
		if err != nil {
			return nil, err
		}
		if present {
			b.Traces = make([]trace.Context, n)
			for i := range b.Traces {
				has, err := r.bool01()
				if err != nil {
					return nil, err
				}
				if !has {
					continue
				}
				if b.Traces[i], _, err = r.traceCtx(); err != nil {
					return nil, err
				}
			}
		}
		return b, nil
	case EnvDeliveryBatch:
		b := &DeliveryBatchBody{}
		if b.Queue, err = r.queue(); err != nil {
			return nil, err
		}
		n, present, err := r.count()
		if err != nil {
			return nil, err
		}
		if present {
			b.Items = make([]DeliveryItem, n)
			for i := range b.Items {
				it := &b.Items[i]
				if it.Tag, err = r.uvarint(); err != nil {
					return nil, err
				}
				if it.Body, err = r.bytesNil(); err != nil {
					return nil, err
				}
				f, err := r.u8()
				if err != nil {
					return nil, err
				}
				it.Redelivered = f&1 != 0
				if f&2 != 0 {
					if it.Trace, _, err = r.traceCtx(); err != nil {
						return nil, err
					}
				}
			}
		}
		return b, nil
	case EnvAckBatch:
		b := &AckBatchBody{}
		if b.Queue, err = r.queue(); err != nil {
			return nil, err
		}
		n, present, err := r.count()
		if err != nil {
			return nil, err
		}
		if present {
			b.Tags = make([]uint64, n)
			for i := range b.Tags {
				if b.Tags[i], err = r.uvarint(); err != nil {
					return nil, err
				}
			}
		}
		return b, nil
	case EnvReject:
		b := &RejectBody{}
		if b.Queue, err = r.queue(); err != nil {
			return nil, err
		}
		if b.Tag, err = r.uvarint(); err != nil {
			return nil, err
		}
		return b, nil
	case EnvDeclare, EnvCancel, EnvDelete:
		b := &DeclareBody{}
		if b.Queue, err = r.queue(); err != nil {
			return nil, err
		}
		return b, nil
	case EnvConsume:
		b := &ConsumeBody{}
		if b.Queue, err = r.queue(); err != nil {
			return nil, err
		}
		if b.Prefetch, err = r.int(); err != nil {
			return nil, err
		}
		return b, nil
	case EnvError:
		b := &ErrorBody{}
		if b.Message, err = r.str(); err != nil {
			return nil, err
		}
		return b, nil
	case EnvRegister:
		b := &RegisterBody{}
		if b.BlockID, err = r.str(); err != nil {
			return nil, err
		}
		if b.Capacity, err = r.int(); err != nil {
			return nil, err
		}
		n, present, err := r.count()
		if err != nil {
			return nil, err
		}
		if present {
			b.Nodes = make([]string, n)
			for i := range b.Nodes {
				if b.Nodes[i], err = r.str(); err != nil {
					return nil, err
				}
			}
		}
		return b, nil
	}
	return nil, fmt.Errorf("%w: %s has no structured body", ErrBadFrame, t)
}
