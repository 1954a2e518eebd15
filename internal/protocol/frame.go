package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"globuscompute/internal/trace"
)

// Envelope is the unit of transmission on every framed connection: a type
// tag, an optional correlation ID, an optional trace context, and a body.
type Envelope struct {
	Type string `json:"type"`
	ID   string `json:"id,omitempty"`
	// Trace is a distributed-trace context in the frame header; nil means
	// no trace. Broker messages carry theirs per message inside the batch
	// bodies instead, so no envelope in the tree sets it.
	Trace *trace.Context  `json:"trace,omitempty"`
	Body  json.RawMessage `json:"body,omitempty"`
	// Bin, when non-nil, is the pre-parsed body (a *PublishBatchBody,
	// *DeliveryBatchBody, ...). Writers encode the broker's wire bodies
	// structurally and any other value as its JSON under binary framing;
	// reads land structured bodies here so Decode can copy without a JSON
	// round trip.
	Bin any `json:"-"`
}

// Envelope type tags used across the system.
const (
	EnvTask      = "task"      // broker -> endpoint, interchange -> manager
	EnvResult    = "result"    // worker -> ... -> broker
	EnvNack      = "nack"      // consumer rejection (requeue or dead-letter)
	EnvHeartbeat = "heartbeat" // liveness
	EnvRegister  = "register"  // manager registration with interchange
	EnvCapacity  = "capacity"  // manager advertises free worker slots
	EnvConsume   = "consume"   // broker client: begin consuming a queue
	EnvPublish   = "publish"   // one message; encoded by the codec, sent by no peer
	EnvDeclare   = "declare"   // broker client: declare a queue
	EnvError     = "error"     // protocol-level error report
	EnvOK        = "ok"        // generic success reply
	EnvDrain     = "drain"     // manager: stop accepting, finish inflight
	EnvShutdown  = "shutdown"  // orderly termination

	// The broker's message traffic travels only in these multi-message
	// envelopes; one message is a batch of one.
	EnvPublishBatch  = "publish_batch"  // broker client: publish N messages to one queue
	EnvDeliveryBatch = "delivery_batch" // broker -> consumer: N deliveries in one frame
	EnvAckBatch      = "ack_batch"      // consumer: acknowledge N tags in one frame
)

// MaxFrame bounds a single frame; larger frames indicate corruption or a
// payload that should have gone through the object store.
const MaxFrame = 64 << 20

// ErrFrameTooLarge is returned when an encoded or received frame exceeds
// MaxFrame.
var ErrFrameTooLarge = fmt.Errorf("protocol: frame exceeds %d bytes", MaxFrame)

// NewEnvelope builds an envelope, JSON-encoding body. A nil body yields an
// empty envelope body.
func NewEnvelope(typ, id string, body any) (Envelope, error) {
	env := Envelope{Type: typ, ID: id}
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return env, fmt.Errorf("protocol: marshal envelope body: %w", err)
		}
		env.Body = b
	}
	return env, nil
}

// MustEnvelope is NewEnvelope for bodies that cannot fail to marshal.
func MustEnvelope(typ, id string, body any) Envelope {
	env, err := NewEnvelope(typ, id, body)
	if err != nil {
		panic(err)
	}
	return env
}

// Decode unmarshals the envelope body into v. When the envelope carries a
// pre-parsed Bin body of the same type (a binary read, or a same-process
// handoff), the body is copied without touching JSON at all.
func (e Envelope) Decode(v any) error {
	if e.Bin != nil {
		if copyBinBody(e.Bin, v) {
			return nil
		}
		b, err := marshalBody(e.Bin)
		if err != nil {
			return fmt.Errorf("protocol: decode %s envelope: %w", e.Type, err)
		}
		e.Body = b
	}
	if err := json.Unmarshal(e.Body, v); err != nil {
		return fmt.Errorf("protocol: decode %s envelope: %w", e.Type, err)
	}
	return nil
}

// copyBinBody copies a pre-parsed body into a destination of the same
// concrete type. Returns false on any type mismatch so Decode can fall back
// to the JSON route.
func copyBinBody(src, dst any) bool {
	switch s := src.(type) {
	case *PublishBatchBody:
		if d, ok := dst.(*PublishBatchBody); ok {
			*d = *s
			return true
		}
	case *DeliveryBatchBody:
		if d, ok := dst.(*DeliveryBatchBody); ok {
			*d = *s
			return true
		}
	case *AckBody:
		if d, ok := dst.(*AckBody); ok {
			*d = *s
			return true
		}
	case *AckBatchBody:
		if d, ok := dst.(*AckBatchBody); ok {
			*d = *s
			return true
		}
	case *ConsumeBody:
		if d, ok := dst.(*ConsumeBody); ok {
			*d = *s
			return true
		}
	case *DeclareBody:
		if d, ok := dst.(*DeclareBody); ok {
			*d = *s
			return true
		}
	case *ErrorBody:
		if d, ok := dst.(*ErrorBody); ok {
			*d = *s
			return true
		}
	}
	return false
}

// marshalBody JSON-encodes a pre-parsed body.
func marshalBody(v any) (json.RawMessage, error) {
	return json.Marshal(v)
}

// Normalize returns the envelope with Bin materialized into Body: its JSON
// form, which FuzzCodecEquivalence compares against.
func (e Envelope) Normalize() (Envelope, error) {
	if e.Bin == nil {
		return e, nil
	}
	b, err := marshalBody(e.Bin)
	if err != nil {
		return e, err
	}
	e.Body = b
	e.Bin = nil
	return e, nil
}

// encodeBufPool recycles the per-frame encode buffers across every
// FrameWriter in the process, so steady-state encoding of a structured body
// allocates nothing. Buffers that grew past 1 MiB are dropped rather than
// pooled to keep a single huge payload from pinning memory.
var encodeBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

const pooledBufLimit = 1 << 20

// FrameWriter writes length-prefixed binary envelopes. It is safe for
// concurrent use: the engine multiplexes many logical streams over one
// manager connection.
type FrameWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

// NewFrameWriter wraps w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriter(w)}
}

// encodeFrame renders env (header + payload) into a pooled buffer. The
// caller must return the buffer with putEncodeBuf.
func encodeFrame(env Envelope) (*bytes.Buffer, error) {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := appendBinaryEnvelope(buf, env); err != nil {
		putEncodeBuf(buf)
		return nil, err
	}
	n := buf.Len() - 4
	if n > MaxFrame {
		putEncodeBuf(buf)
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf.Bytes()[:4], uint32(n))
	return buf, nil
}

func putEncodeBuf(buf *bytes.Buffer) {
	if buf.Cap() <= pooledBufLimit {
		encodeBufPool.Put(buf)
	}
}

// Write encodes env as a 4-byte big-endian length followed by the binary
// envelope, and flushes. Encoding happens outside the writer lock (in a
// pooled buffer) so concurrent writers only serialize on the actual socket
// write.
func (fw *FrameWriter) Write(env Envelope) error {
	buf, err := encodeFrame(env)
	if err != nil {
		return err
	}
	defer putEncodeBuf(buf)
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if _, err := fw.w.Write(buf.Bytes()); err != nil {
		return err
	}
	return fw.w.Flush()
}

// FrameReader reads length-prefixed binary envelopes. Not safe for
// concurrent use; each connection has a single reader goroutine.
type FrameReader struct {
	r *bufio.Reader
	// buf is reused across Reads. Safe because DecodeBinaryEnvelope copies
	// every byte it retains out of the input.
	buf []byte
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// Read returns the next envelope. io.EOF is returned unwrapped at a clean
// stream end. A payload that is not a binary envelope (a JSON frame, say)
// is refused with an error wrapping ErrBadFrame.
func (fr *FrameReader) Read() (Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Envelope{}, io.EOF
		}
		return Envelope{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return Envelope{}, ErrFrameTooLarge
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	buf := fr.buf[:n]
	// Frames over the pooling limit are one-off payload spills; do not let
	// them pin the reader's reusable buffer.
	if n > pooledBufLimit {
		fr.buf = nil
	}
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return Envelope{}, fmt.Errorf("protocol: short frame: %w", err)
	}
	return DecodeBinaryEnvelope(buf)
}
