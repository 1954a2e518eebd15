package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"globuscompute/internal/trace"
)

// Binary envelope codec: the one encoding of every framed connection. The
// broker's wire bodies (publish_batch, delivery_batch, ack_batch, nack,
// error, and publish) encode field by field: varint lengths, raw bytes for
// message bodies, raw 16-byte UUIDs inside well-known queue names, and an
// inline trace context per message. Every other envelope (consume, declare,
// task, result, ...) carries its body verbatim under the same framing: JSON,
// or for task and result frames the binary body of body.go.
//
// The outer transport is a 4-byte big-endian length prefix, and every
// payload starts with the magic byte 0xBF, so a JSON envelope ('{') is
// refused at the first byte instead of misparsed.

// binMagic is the first payload byte of every frame.
const binMagic = 0xBF

// BinVersion is the binary frame format version. Readers reject frames with
// a version they do not know; bumping it is a wire change that old peers
// refuse loudly instead of misparsing. Version 2 carries binary task and
// result bodies (body.go) and has no frame-header trace context.
const BinVersion = 2

// Envelope type codes. Code 0 means "type string follows" and covers every
// envelope type without a code (including ones added later). Codes 3 and 5
// (the single delivery and the single ack) are retired and decode as
// unknown; no code moves.
const (
	binTypeOther byte = iota
	binTypePublish
	binTypePublishBatch
	_
	binTypeDeliveryBatch
	_
	binTypeAckBatch
	binTypeNack
	binTypeHeartbeat
	binTypeOK
	binTypeError
	binTypeConsume
	binTypeDeclare
	binTypeTask
	binTypeResult
	binTypeMax // sentinel
)

var binTypeCode = map[string]byte{
	EnvPublish:       binTypePublish,
	EnvPublishBatch:  binTypePublishBatch,
	EnvDeliveryBatch: binTypeDeliveryBatch,
	EnvAckBatch:      binTypeAckBatch,
	EnvNack:          binTypeNack,
	EnvHeartbeat:     binTypeHeartbeat,
	EnvOK:            binTypeOK,
	EnvError:         binTypeError,
	EnvConsume:       binTypeConsume,
	EnvDeclare:       binTypeDeclare,
	EnvTask:          binTypeTask,
	EnvResult:        binTypeResult,
}

var binTypeName = [binTypeMax]string{
	binTypePublish:       EnvPublish,
	binTypePublishBatch:  EnvPublishBatch,
	binTypeDeliveryBatch: EnvDeliveryBatch,
	binTypeAckBatch:      EnvAckBatch,
	binTypeNack:          EnvNack,
	binTypeHeartbeat:     EnvHeartbeat,
	binTypeOK:            EnvOK,
	binTypeError:         EnvError,
	binTypeConsume:       EnvConsume,
	binTypeDeclare:       EnvDeclare,
	binTypeTask:          EnvTask,
	binTypeResult:        EnvResult,
}

// Envelope flag bits. Bit 1 was version 1's frame-header trace context;
// version 2 retired it, and a frame that sets it is refused.
const (
	binFlagID     = 1 << 0 // correlation ID present
	_             = 1 << 1 // retired: frame-header trace context
	binFlagStruct = 1 << 2 // structured body (per-typecode encoding)
	binFlagRaw    = 1 << 3 // body carried verbatim
	binFlagsAll   = binFlagID | binFlagStruct | binFlagRaw
)

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
// empty: 0 = nil, n+1 = n bytes. JSON makes the same distinction (null vs
// ""), and codec equivalence requires preserving it.
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
	if raw, ok := packUUID(u); ok {
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

// bool01 writes a bool as one byte.
func (w *binWriter) bool01(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// isLowerHex reports whether s is nonempty, even-length, strictly lowercase
// hex — the only strings whose hex round trip is byte-identical.
func isLowerHex(s string) bool {
	if len(s) == 0 || len(s)%2 != 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Trace-context flag bits.
const (
	tcFlagTraceRaw = 1 << 0 // trace ID hex-packed to raw bytes
	tcFlagSpan     = 1 << 1 // span ID present
	tcFlagSpanRaw  = 1 << 2 // span ID hex-packed
)

// traceCtx writes a trace context. Well-formed IDs (lowercase hex) pack to
// half size as raw bytes; anything else falls back to the verbatim string so
// decode always reproduces the input exactly.
func (w *binWriter) traceCtx(tc *trace.Context) {
	var flags byte
	tid, sid := string(tc.TraceID), string(tc.SpanID)
	if isLowerHex(tid) {
		flags |= tcFlagTraceRaw
	}
	if sid != "" {
		flags |= tcFlagSpan
		if isLowerHex(sid) {
			flags |= tcFlagSpanRaw
		}
	}
	w.u8(flags)
	if flags&tcFlagTraceRaw != 0 {
		w.hexRaw(tid)
	} else {
		w.str(tid)
	}
	if flags&tcFlagSpan == 0 {
		return
	}
	if flags&tcFlagSpanRaw != 0 {
		w.hexRaw(sid)
	} else {
		w.str(sid)
	}
}

// hexRaw writes the bytes a lowercase hex string spells, length-prefixed.
func (w *binWriter) hexRaw(s string) {
	w.uvarint(uint64(len(s) / 2))
	for i := 0; i < len(s); i += 2 {
		w.buf.WriteByte(hexValue[s[i]]<<4 | hexValue[s[i+1]])
	}
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
		raw, ok := packUUID(UUID(rest))
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

// packUUID packs a canonical UUID string into its 16 raw bytes; ok is false
// for anything else.
func packUUID(u UUID) (raw [16]byte, ok bool) {
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

// appendBinaryEnvelope renders env as a frame payload into buf
// (after the caller's 4-byte length placeholder). When env.Bin is a known
// wire body it is encoded structurally; otherwise the JSON body (or a JSON
// marshal of Bin) is carried verbatim under binary framing.
func appendBinaryEnvelope(buf *bytes.Buffer, env Envelope) error {
	w := &binWriter{buf: buf}
	w.u8(binMagic)
	w.u8(BinVersion)
	code := binTypeCode[env.Type]
	w.u8(code)
	if code == binTypeOther {
		w.str(env.Type)
	}

	structured := env.Bin != nil && binBodySupported(env.Bin)
	raw := env.Body
	if env.Bin != nil && !structured {
		b, err := marshalBody(env.Bin)
		if err != nil {
			return err
		}
		raw = b
	}
	var flags byte
	if env.ID != "" {
		flags |= binFlagID
	}
	if structured {
		flags |= binFlagStruct
	} else if raw != nil {
		flags |= binFlagRaw
	}
	w.u8(flags)
	if flags&binFlagID != 0 {
		w.str(env.ID)
	}
	if structured {
		if err := encodeBinBody(w, env.Bin); err != nil {
			return err
		}
	} else if flags&binFlagRaw != 0 {
		w.uvarint(uint64(len(raw)))
		w.buf.Write(raw)
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

// binBodySupported reports whether v has a structured binary encoding.
func binBodySupported(v any) bool {
	switch v.(type) {
	case *PublishBody, *PublishBatchBody, *DeliveryBatchBody,
		*AckBody, *AckBatchBody, *ErrorBody:
		return true
	}
	return false
}

func encodeBinBody(w *binWriter, v any) error {
	switch b := v.(type) {
	case *PublishBody:
		w.queue(b.Queue)
		w.bytesNil(b.Body)
	case *PublishBatchBody:
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
				if tc == nil {
					w.u8(0)
					continue
				}
				w.u8(1)
				w.traceCtx(tc)
			}
		}
	case *DeliveryBatchBody:
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
				if it.Trace != nil {
					f |= 2
				}
				w.u8(f)
				if it.Trace != nil {
					w.traceCtx(it.Trace)
				}
			}
		}
	case *AckBody:
		w.queue(b.Queue)
		w.uvarint(b.Tag)
		w.bool01(b.DeadLetter)
	case *AckBatchBody:
		w.queue(b.Queue)
		if b.Tags == nil {
			w.uvarint(0)
		} else {
			w.uvarint(uint64(len(b.Tags)) + 1)
			for _, t := range b.Tags {
				w.uvarint(t)
			}
		}
	case *ErrorBody:
		w.str(b.Message)
	default:
		return fmt.Errorf("protocol: no binary encoding for %T", v)
	}
	return nil
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

func (r *binReader) traceCtx() (*trace.Context, error) {
	var sb strings.Builder
	tid, sid, err := r.traceInto(&sb)
	if err != nil {
		return nil, err
	}
	s := sb.String()
	return &trace.Context{TraceID: trace.TraceID(tid.in(s)), SpanID: trace.SpanID(sid.in(s))}, nil
}

// traceInto reads what binWriter.traceCtx writes, appending the trace and
// span IDs to sb and returning their spans there.
func (r *binReader) traceInto(sb *strings.Builder) (tid, sid span, err error) {
	flags, err := r.u8()
	if err != nil {
		return tid, sid, err
	}
	if tid, err = r.idInto(sb, flags&tcFlagTraceRaw != 0); err != nil || flags&tcFlagSpan == 0 {
		return tid, sid, err
	}
	sid, err = r.idInto(sb, flags&tcFlagSpanRaw != 0)
	return tid, sid, err
}

// idInto reads one trace-context ID: hex-packed raw bytes, or a verbatim
// string.
func (r *binReader) idInto(sb *strings.Builder, packed bool) (span, error) {
	b, err := r.chunk()
	if err != nil {
		return span{}, err
	}
	lo := sb.Len()
	if !packed {
		sb.Write(b)
		return span{lo, sb.Len()}, nil
	}
	sb.Grow(2 * len(b))
	for _, c := range b {
		sb.WriteByte(hexDigits[c>>4])
		sb.WriteByte(hexDigits[c&15])
	}
	return span{lo, sb.Len()}, nil
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
// Structured bodies land in Envelope.Bin; raw-carried JSON bodies land in
// Envelope.Body. It never panics on truncated or corrupt input and every
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
	var env Envelope
	switch {
	case code == binTypeOther:
		t, err := r.str()
		if err != nil {
			return Envelope{}, err
		}
		env.Type = t
	case int(code) < len(binTypeName) && binTypeName[code] != "":
		env.Type = binTypeName[code]
	default:
		return Envelope{}, fmt.Errorf("%w: unknown type code %d", ErrBadFrame, code)
	}
	flags, err := r.u8()
	if err != nil {
		return Envelope{}, err
	}
	if flags&^binFlagsAll != 0 {
		return Envelope{}, fmt.Errorf("%w: unknown frame flags %#x", ErrBadFrame, flags&^binFlagsAll)
	}
	if flags&binFlagID != 0 {
		id, err := r.str()
		if err != nil {
			return Envelope{}, err
		}
		env.ID = id
	}
	switch {
	case flags&binFlagStruct != 0:
		bin, err := decodeBinBody(r, code)
		if err != nil {
			return Envelope{}, err
		}
		env.Bin = bin
	case flags&binFlagRaw != 0:
		n, err := r.length()
		if err != nil {
			return Envelope{}, err
		}
		raw, err := r.take(n)
		if err != nil {
			return Envelope{}, err
		}
		env.Body = append([]byte(nil), raw...)
	}
	if r.rem() != 0 {
		return Envelope{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, r.rem())
	}
	return env, nil
}

func decodeBinBody(r *binReader, code byte) (any, error) {
	switch code {
	case binTypePublish:
		b := &PublishBody{}
		var err error
		if b.Queue, err = r.queue(); err != nil {
			return nil, err
		}
		if b.Body, err = r.bytesNil(); err != nil {
			return nil, err
		}
		return b, nil
	case binTypePublishBatch:
		b := &PublishBatchBody{}
		var err error
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
			b.Traces = make([]*trace.Context, n)
			for i := range b.Traces {
				has, err := r.bool01()
				if err != nil {
					return nil, err
				}
				if !has {
					continue
				}
				if b.Traces[i], err = r.traceCtx(); err != nil {
					return nil, err
				}
			}
		}
		return b, nil
	case binTypeDeliveryBatch:
		b := &DeliveryBatchBody{}
		var err error
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
					if it.Trace, err = r.traceCtx(); err != nil {
						return nil, err
					}
				}
			}
		}
		return b, nil
	case binTypeNack:
		b := &AckBody{}
		var err error
		if b.Queue, err = r.queue(); err != nil {
			return nil, err
		}
		if b.Tag, err = r.uvarint(); err != nil {
			return nil, err
		}
		if b.DeadLetter, err = r.bool01(); err != nil {
			return nil, err
		}
		return b, nil
	case binTypeAckBatch:
		b := &AckBatchBody{}
		var err error
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
	case binTypeError:
		b := &ErrorBody{}
		var err error
		if b.Message, err = r.str(); err != nil {
			return nil, err
		}
		return b, nil
	default:
		return nil, fmt.Errorf("%w: type code %d has no structured body", ErrBadFrame, code)
	}
}
