package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Envelope is the unit of transmission on every framed connection: a type
// code, an optional correlation ID, and the one body its code fixes. Trace
// contexts travel inside the bodies: per message in the broker's batch
// bodies, and in the task and result bodies themselves.
type Envelope struct {
	Type EnvType
	ID   string
	// Body is the opaque body of a task or result envelope: protocol's
	// binary task or result body (EncodeTask, EncodeResult).
	Body []byte
	// Bin is the structured body of every other code that has one, a
	// pointer to its code's wire.go type (*PublishBatchBody, *DeclareBody,
	// ...). A decoded envelope always carries its code's type here, so call
	// sites type-assert it.
	Bin any
}

// EnvType is an envelope's type code, one byte on the wire. The code alone
// fixes the body: structured, opaque bytes, or none.
type EnvType byte

// Envelope type codes. Code 0 and codes past the last are refused.
const (
	EnvPublish       EnvType = iota + 1 // one message; encoded by the benchmark's codec probe, sent by no peer
	EnvPublishBatch                     // broker client: publish N messages to one queue
	EnvDeliveryBatch                    // broker -> consumer: N deliveries in one frame
	EnvAckBatch                         // consumer: acknowledge N tags in one frame
	EnvReject                           // consumer: dead-letter one delivery
	EnvDeclare                          // broker client: declare a queue
	EnvConsume                          // broker client: begin consuming a queue
	EnvCancel                           // broker client: cancel this connection's consumer
	EnvDelete                           // broker client: delete a queue broker-wide
	EnvHeartbeat                        // broker client: liveness round trip
	EnvOK                               // success reply
	EnvError                            // error reply
	EnvRegister                         // manager registration with the interchange
	EnvTask                             // interchange -> manager
	EnvResult                           // manager -> interchange
	envTypeEnd
)

// bodyKind says what an envelope type's body is.
type bodyKind uint8

const (
	bodyNone       bodyKind = iota // no body: ok, heartbeat
	bodyBytes                      // opaque bytes in Envelope.Body: task, result
	bodyStructured                 // a structured body in Envelope.Bin
)

// envTypes is the one table of envelope types, indexed by code: each code's
// name and body kind. The structured layouts are encodeBinBody's and
// decodeBinBody's cases.
var envTypes = [envTypeEnd]struct {
	name string
	body bodyKind
}{
	EnvPublish:       {"publish", bodyStructured},
	EnvPublishBatch:  {"publish_batch", bodyStructured},
	EnvDeliveryBatch: {"delivery_batch", bodyStructured},
	EnvAckBatch:      {"ack_batch", bodyStructured},
	EnvReject:        {"reject", bodyStructured},
	EnvDeclare:       {"declare", bodyStructured},
	EnvConsume:       {"consume", bodyStructured},
	EnvCancel:        {"cancel", bodyStructured},
	EnvDelete:        {"delete", bodyStructured},
	EnvHeartbeat:     {"heartbeat", bodyNone},
	EnvOK:            {"ok", bodyNone},
	EnvError:         {"error", bodyStructured},
	EnvRegister:      {"register", bodyStructured},
	EnvTask:          {"task", bodyBytes},
	EnvResult:        {"result", bodyBytes},
}

// valid reports whether t is a known code.
func (t EnvType) valid() bool { return t > 0 && t < envTypeEnd }

// String returns the type's name, or its code for an unknown one.
func (t EnvType) String() string {
	if t.valid() {
		return envTypes[t].name
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// MaxFrame bounds a single frame; larger frames indicate corruption or a
// payload that should have gone through the object store.
const MaxFrame = 64 << 20

// ErrFrameTooLarge is returned when an encoded or received frame exceeds
// MaxFrame.
var ErrFrameTooLarge = fmt.Errorf("protocol: frame exceeds %d bytes", MaxFrame)

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

// Read returns the next envelope, its body of its code's one type (see
// DecodeBinaryEnvelope). io.EOF is returned unwrapped at a clean stream end.
// A payload that is not a binary envelope (a JSON frame, say) is refused
// with an error wrapping ErrBadFrame.
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
