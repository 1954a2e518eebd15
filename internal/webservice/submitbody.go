package webservice

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"

	"globuscompute/internal/protocol"
	"globuscompute/internal/serialize"
	"globuscompute/internal/trace"
)

// POST /v2/submit takes its body in two forms, told apart by Content-Type.
//
//   - JSON (any other content type): a submitRequest, each task's payload
//     base64 inside it. This is what curl and foreign clients send, and it
//     is answered with JSON {"task_uuids": [...]}.
//   - SubmitContentType, which the SDK sends:
//
//     uvarint(len(header)) ‖ header ‖ uvarint(len(p₀)) ‖ p₀ ‖ … ‖ uvarint(len(pₙ₋₁)) ‖ pₙ₋₁
//
//     pᵢ is task i's payload, verbatim, and the header is binary, written
//     with protocol.Writer's fields:
//
//     str(idempotency_key) ‖ priority ‖ uvarint(n) ‖ n × record
//     record = presence ‖ the fields its bits name, in bit order
//
//     priority is 0 (batch) or 1 (interactive). The endpoint and function
//     IDs are present unless their "same" bit says they repeat the previous
//     task's; the group ID is present under its own bit and absent under its
//     "same" bit or when the task has none. Resources are three uvarints,
//     user_endpoint_config a chunk of raw bytes, and a trace context its
//     16-byte trace ID and 8-byte span ID. The binary form is answered with
//     a protocol.TaskIDsMediaType body.
//
// The binary form is versioned by the v parameter; a version this service
// does not read is refused with 415. A header has one spelling: the decoder
// refuses any other (a repeated ID not marked "same", a field present but
// empty), so a body that decodes re-encodes to the same bytes.

type submitRequest struct {
	Tasks []SubmitRequest `json:"tasks"`
	// IdempotencyKey makes the whole batch idempotent per authenticated
	// identity: retries with the same key return the original task IDs.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Priority "interactive" dispatches ahead of batch traffic and sheds
	// later; anything else (or absent) is batch priority.
	Priority string `json:"priority,omitempty"`
}

const (
	submitMediaType = "application/x-gc-submit"
	submitVersion   = "2"
	// SubmitContentType labels the binary submit body EncodeSubmitBody
	// writes.
	SubmitContentType = submitMediaType + "; v=" + submitVersion
)

// Presence bits of a binary submit header's task record.
const (
	presSameEndpoint = 1 << iota
	presSameFunction
	presGroup
	presSameGroup
	presResources
	presUserEndpointConfig
	presTrace
	presAll = 1<<iota - 1
)

// traceSize is a trace context in a submit header: trace ID and span ID.
const traceSize = len(trace.TraceID{}) + len(trace.SpanID{})

var (
	errSubmitVersion = errors.New("webservice: unsupported submit body version")
	errSubmitBody    = errors.New("webservice: bad submit body")
	errTruncated     = fmt.Errorf("%w: truncated", errSubmitBody)
)

// EncodeSubmitBody renders a batch as the binary submit body
// (SubmitContentType), in one allocation.
func EncodeSubmitBody(tasks []SubmitRequest, opts SubmitOptions) []byte {
	// An upper bound of the body's size, so the buffer never grows.
	size := 3*binary.MaxVarintLen64 + len(opts.IdempotencyKey) + 1
	for i := range tasks {
		t, p := &tasks[i], presence(tasks, i)
		size += 1 + binary.MaxVarintLen64 + len(t.Payload) +
			fieldSize(p&presSameEndpoint == 0, len(t.EndpointID)) +
			fieldSize(p&presSameFunction == 0, len(t.FunctionID)) +
			fieldSize(p&presGroup != 0, len(t.GroupID)) +
			fieldSize(p&presUserEndpointConfig != 0, len(t.UserEndpointConfig))
		if p&presResources != 0 {
			size += 3 * binary.MaxVarintLen64
		}
		if p&presTrace != 0 {
			size += traceSize
		}
	}
	var buf bytes.Buffer
	buf.Grow(size)
	// The header's length goes before it: write the header after room for
	// the longest prefix, then put the prefix right before it.
	buf.Write(make([]byte, binary.MaxVarintLen64))
	w := protocol.NewWriter(&buf)
	w.Str(opts.IdempotencyKey)
	if opts.Interactive {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Uvarint(uint64(len(tasks)))
	for i := range tasks {
		t, p := &tasks[i], presence(tasks, i)
		w.Byte(p)
		if p&presSameEndpoint == 0 {
			w.UUID(t.EndpointID)
		}
		if p&presSameFunction == 0 {
			w.UUID(t.FunctionID)
		}
		if p&presGroup != 0 {
			w.UUID(t.GroupID)
		}
		if p&presResources != 0 {
			w.Uvarint(uint64(t.Resources.NumNodes))
			w.Uvarint(uint64(t.Resources.RanksPerNode))
			w.Uvarint(uint64(t.Resources.NumRanks))
		}
		if p&presUserEndpointConfig != 0 {
			w.Chunk(t.UserEndpointConfig)
		}
		if p&presTrace != 0 {
			w.Raw(t.Trace.TraceID[:])
			w.Raw(t.Trace.SpanID[:])
		}
	}
	headerLen := buf.Len() - binary.MaxVarintLen64
	for i := range tasks {
		w.Chunk(tasks[i].Payload)
	}
	body := buf.Bytes()
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(headerLen))
	at := binary.MaxVarintLen64 - n
	copy(body[at:], prefix[:n])
	return body[at:]
}

// fieldSize bounds what a present length-prefixed field of n bytes (or a
// uuid of n characters) takes.
func fieldSize(present bool, n int) int {
	if !present {
		return 0
	}
	return binary.MaxVarintLen64 + n
}

// presence returns task i's presence byte: which of its fields the header
// carries, and which repeat the previous task's.
func presence(tasks []SubmitRequest, i int) byte {
	t := &tasks[i]
	var p byte
	if i > 0 {
		prev := &tasks[i-1]
		if t.EndpointID == prev.EndpointID {
			p |= presSameEndpoint
		}
		if t.FunctionID == prev.FunctionID {
			p |= presSameFunction
		}
		if t.GroupID != "" && t.GroupID == prev.GroupID {
			p |= presSameGroup
		}
	}
	if t.GroupID != "" && p&presSameGroup == 0 {
		p |= presGroup
	}
	if !t.Resources.IsZero() {
		p |= presResources
	}
	if len(t.UserEndpointConfig) > 0 {
		p |= presUserEndpointConfig
	}
	if t.Trace.Valid() {
		p |= presTrace
	}
	return p
}

// decodeSubmitHeader decodes a binary submit header whose sections can
// take at most sectionBytes. Everything it returns is copied out of header.
func decodeSubmitHeader(header []byte, sectionBytes int64) (submitRequest, error) {
	var req submitRequest
	r := protocol.NewReader(header)
	req.IdempotencyKey = r.Str()
	switch prio := r.Byte(); prio {
	case 0:
	case 1:
		req.Priority = "interactive"
	default:
		r.Fail("unknown priority %d", prio)
	}
	n := r.Count()
	if r.Err() == nil && int64(n) > sectionBytes {
		// Every task has a payload section of at least one byte.
		r.Fail("%d tasks but %d bytes for their payloads", n, sectionBytes)
	}
	if err := r.Err(); err != nil {
		return req, fmt.Errorf("%w: header: %v", errSubmitBody, err)
	}
	req.Tasks = make([]SubmitRequest, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		t, prev := &req.Tasks[i], &req.Tasks[max(i-1, 0)]
		p := r.Byte()
		if p&^presAll != 0 {
			r.Fail("task %d: unknown presence bits %#x", i, p&^presAll)
		}
		if i == 0 && p&(presSameEndpoint|presSameFunction|presSameGroup) != 0 {
			r.Fail("task 0 repeats a previous task")
		}
		t.EndpointID = readID(r, i, p&presSameEndpoint != 0, prev.EndpointID, "endpoint")
		t.FunctionID = readID(r, i, p&presSameFunction != 0, prev.FunctionID, "function")
		switch p & (presGroup | presSameGroup) {
		case presGroup:
			if t.GroupID = readID(r, i, false, prev.GroupID, "group"); t.GroupID == "" {
				r.Fail("task %d: empty group ID", i)
			}
		case presSameGroup:
			if t.GroupID = prev.GroupID; t.GroupID == "" {
				r.Fail("task %d repeats an absent group ID", i)
			}
		case presGroup | presSameGroup:
			r.Fail("task %d: group ID both given and repeated", i)
		}
		if p&presResources != 0 {
			t.Resources = protocol.ResourceSpec{NumNodes: int(r.Uvarint()), RanksPerNode: int(r.Uvarint()), NumRanks: int(r.Uvarint())}
			if t.Resources.IsZero() {
				r.Fail("task %d: empty resources", i)
			}
		}
		if p&presUserEndpointConfig != 0 {
			c := r.Chunk()
			if len(c) == 0 {
				r.Fail("task %d: empty user_endpoint_config", i)
			}
			t.UserEndpointConfig = bytes.Clone(c)
		}
		if p&presTrace != 0 {
			if b := r.Take(traceSize); b != nil {
				copy(t.Trace.TraceID[:], b)
				copy(t.Trace.SpanID[:], b[len(t.Trace.TraceID):])
			}
			if r.Err() == nil && !t.Trace.Valid() {
				r.Fail("task %d: zero trace ID", i)
			}
		}
	}
	if err := r.Done("submit header"); err != nil {
		return req, fmt.Errorf("%w: header: %v", errSubmitBody, err)
	}
	return req, nil
}

// readID reads task i's endpoint, function or group ID: the previous task's
// when same is set, the next field otherwise. A field equal to the previous
// task's ID is refused, since the encoder writes "same" for it.
func readID(r *protocol.Reader, i int, same bool, prev protocol.UUID, what string) protocol.UUID {
	if same {
		return prev
	}
	id := r.UUID()
	if i > 0 && id == prev && r.Err() == nil {
		r.Fail("task %d: %s ID repeats the previous task's", i, what)
	}
	return id
}

// ReadSubmitBody decodes a POST /v2/submit body in either form, as the
// service does: the binary form under SubmitContentType, JSON otherwise. A
// payload over payloadLimit is refused with serialize.ErrPayloadTooLarge;
// in the binary form that happens before its bytes are read.
func ReadSubmitBody(r *http.Request, payloadLimit int) ([]SubmitRequest, SubmitOptions, error) {
	var req submitRequest
	bin, err := binarySubmit(r.Header.Get("Content-Type"))
	switch {
	case err != nil:
		r.Body.Close()
	case bin:
		req, err = readBinarySubmit(r.Body, r.ContentLength, payloadLimit)
		r.Body.Close()
	default:
		err = decodeBody(r, &req)
	}
	if err != nil {
		return nil, SubmitOptions{}, err
	}
	return req.Tasks, req.options(), nil
}

// binarySubmit reports whether a submit body of contentType is in the
// binary form, refusing a binary form of another version.
func binarySubmit(contentType string) (bool, error) {
	if contentType == SubmitContentType {
		return true, nil
	}
	if mt, params, _ := mime.ParseMediaType(contentType); mt != submitMediaType {
		return false, nil
	} else if v := params["v"]; v != submitVersion {
		return true, fmt.Errorf("%w %q: this service reads %s", errSubmitVersion, v, SubmitContentType)
	}
	return true, nil
}

// WriteSubmitReply answers a POST /v2/submit: a protocol.TaskIDsMediaType
// body for the binary form, JSON {"task_uuids": [...]} for the JSON form.
func WriteSubmitReply(w http.ResponseWriter, r *http.Request, ids []protocol.UUID) {
	if bin, _ := binarySubmit(r.Header.Get("Content-Type")); !bin {
		writeJSON(w, http.StatusOK, submitResponse{TaskIDs: ids})
		return
	}
	var buf bytes.Buffer
	protocol.AppendTaskIDs(&buf, ids)
	w.Header().Set("Content-Type", protocol.TaskIDsMediaType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

func (r submitRequest) options() SubmitOptions {
	return SubmitOptions{IdempotencyKey: r.IdempotencyKey, Interactive: r.Priority == "interactive"}
}

// readBinarySubmit decodes the binary form from body, which holds size
// bytes (-1 when unknown, and then at most maxBodyBytes). Each payload
// section is read into its own allocation of exactly its length, made only
// after that length has been checked against the bytes the body can still
// hold and against payloadLimit. No buffer holds the whole body: the
// service keeps inline payloads in its task table, and one retained
// request buffer would pin every spilled payload beside them. The body is
// read through one small buffer, which holds the header too when it fits.
func readBinarySubmit(body io.Reader, size int64, payloadLimit int) (submitRequest, error) {
	var req submitRequest
	if size > maxBodyBytes {
		return req, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	s := &sectionReader{r: body, left: size, past: errTruncated}
	if size < 0 {
		s.left, s.past = maxBodyBytes, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	// The header's only bound is the body itself.
	header, err := s.section(maxBodyBytes, true)
	if err != nil {
		return req, fmt.Errorf("header: %w", err)
	}
	if req, err = decodeSubmitHeader(header, s.left); err != nil {
		return req, err
	}
	for i := range req.Tasks {
		if req.Tasks[i].Payload, err = s.section(payloadLimit, false); err != nil {
			return req, fmt.Errorf("task %d: %w", i, err)
		}
	}
	switch _, err := s.ReadByte(); {
	case err == nil:
		return req, fmt.Errorf("%w: data after %d payload sections", errSubmitBody, len(req.Tasks))
	case !errors.Is(err, io.EOF):
		return req, s.readErr(err)
	}
	return req, nil
}

// sectionBufSize is the most of a binary submit body read ahead at once.
const sectionBufSize = 4 << 10

// sectionReader reads the uvarint-framed sections of a binary submit body
// through mem; buf is the part of it read but not yet consumed.
type sectionReader struct {
	r    io.Reader
	mem  [sectionBufSize]byte
	buf  []byte
	left int64 // bytes the body can still hold, buf's included
	past error // what a section running past left means
}

func (s *sectionReader) ReadByte() (byte, error) {
	if len(s.buf) == 0 {
		n, err := io.ReadAtLeast(s.r, s.mem[:], 1)
		if err != nil {
			return 0, err
		}
		s.buf = s.mem[:n]
	}
	b := s.buf[0]
	s.buf = s.buf[1:]
	s.left--
	return b, nil
}

// uvarint reads a uvarint spelled in as few bytes as it needs.
func (s *sectionReader) uvarint() (uint64, error) {
	at := s.left
	n, err := binary.ReadUvarint(s)
	if err != nil {
		return 0, err
	}
	var canon [binary.MaxVarintLen64]byte
	if at-s.left != int64(binary.PutUvarint(canon[:], n)) {
		return 0, fmt.Errorf("%w: overlong section length", errSubmitBody)
	}
	return n, nil
}

// section reads the next section, at most limit bytes. With view set, a
// section that is already in buf is returned in place, valid until the next
// read; otherwise it is copied into an allocation of its own.
func (s *sectionReader) section(limit int, view bool) ([]byte, error) {
	n, err := s.uvarint()
	if err != nil {
		return nil, s.readErr(err)
	}
	if n > uint64(max(s.left, 0)) {
		return nil, s.past
	}
	if n > uint64(limit) {
		return nil, fmt.Errorf("%w (%d bytes, limit %d)", serialize.ErrPayloadTooLarge, n, limit)
	}
	s.left -= int64(n)
	if view && n <= uint64(len(s.buf)) {
		b := s.buf[:n]
		s.buf = s.buf[n:]
		return b, nil
	}
	b := make([]byte, n)
	k := copy(b, s.buf)
	s.buf = s.buf[k:]
	if _, err := io.ReadFull(s.r, b[k:]); err != nil {
		return nil, s.readErr(err)
	}
	return b, nil
}

func (s *sectionReader) readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errTruncated
	}
	if errors.Is(err, errSubmitBody) {
		return err
	}
	return fmt.Errorf("%w: %v", errSubmitBody, err)
}
