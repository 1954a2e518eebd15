package webservice

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"

	"globuscompute/internal/serialize"
)

// POST /v2/submit takes its body in two forms, told apart by Content-Type.
//
//   - JSON (any other content type): a submitRequest, each task's payload
//     base64 inside it. This is what curl and foreign clients send.
//   - SubmitContentType, which the SDK sends:
//
//     uvarint(len(header)) ‖ header ‖ uvarint(len(p₀)) ‖ p₀ ‖ … ‖ uvarint(len(pₙ₋₁)) ‖ pₙ₋₁
//
//     The header is the same submitRequest JSON with every payload left
//     out, and pᵢ is task i's payload, verbatim. So there is one schema,
//     and the payload bytes are neither base64-coded nor scanned as JSON
//     text on either side.
//
// The binary form is versioned by the v parameter; a version this service
// does not know is refused with 415.

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
	submitVersion   = "1"
	// SubmitContentType labels the binary submit body EncodeSubmitBody
	// writes.
	SubmitContentType = submitMediaType + "; v=" + submitVersion
)

var (
	errSubmitVersion = errors.New("webservice: unsupported submit body version")
	errSubmitBody    = errors.New("webservice: bad submit body")
)

// EncodeSubmitBody renders a batch as the binary submit body
// (SubmitContentType).
func EncodeSubmitBody(tasks []SubmitRequest, opts SubmitOptions) ([]byte, error) {
	header := submitRequest{Tasks: make([]SubmitRequest, len(tasks)), IdempotencyKey: opts.IdempotencyKey}
	if opts.Interactive {
		header.Priority = "interactive"
	}
	size := binary.MaxVarintLen64
	for i, t := range tasks {
		size += binary.MaxVarintLen64 + len(t.Payload)
		t.Payload = nil
		header.Tasks[i] = t
	}
	h, err := json.Marshal(header)
	if err != nil {
		return nil, fmt.Errorf("webservice: encode submit header: %w", err)
	}
	body := make([]byte, 0, size+len(h))
	body = binary.AppendUvarint(body, uint64(len(h)))
	body = append(body, h...)
	for _, t := range tasks {
		body = binary.AppendUvarint(body, uint64(len(t.Payload)))
		body = append(body, t.Payload...)
	}
	return body, nil
}

// ReadSubmitBody decodes a POST /v2/submit body in either form, as the
// service does: the binary form under SubmitContentType, JSON otherwise. A
// payload over payloadLimit is refused with serialize.ErrPayloadTooLarge;
// in the binary form that happens before its bytes are read.
func ReadSubmitBody(r *http.Request, payloadLimit int) ([]SubmitRequest, SubmitOptions, error) {
	var req submitRequest
	var err error
	if mt, params, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt == submitMediaType {
		if v := params["v"]; v != submitVersion {
			err = fmt.Errorf("%w %q (have %s)", errSubmitVersion, v, submitVersion)
		} else {
			req, err = readBinarySubmit(r.Body, r.ContentLength, payloadLimit)
		}
		r.Body.Close()
	} else {
		err = decodeBody(r, &req)
	}
	if err != nil {
		return nil, SubmitOptions{}, err
	}
	return req.Tasks, req.options(), nil
}

func (r submitRequest) options() SubmitOptions {
	return SubmitOptions{IdempotencyKey: r.IdempotencyKey, Interactive: r.Priority == "interactive"}
}

// readBinarySubmit decodes the binary form from body, which holds size
// bytes (-1 when unknown, and then at most maxBodyBytes). Each section is
// read straight into its own allocation of exactly its length, made only
// after that length has been checked against the bytes the body can still
// hold and against payloadLimit. No buffer holds the whole body: the
// service keeps inline payloads in its task table, and one retained
// request buffer would pin every spilled payload beside them.
func readBinarySubmit(body io.Reader, size int64, payloadLimit int) (submitRequest, error) {
	var req submitRequest
	if size > maxBodyBytes {
		return req, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	s := &sectionReader{r: body, left: size, past: fmt.Errorf("%w: truncated", errSubmitBody)}
	if size < 0 {
		s.left, s.past = maxBodyBytes, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	// The header's only bound is the body itself.
	header, err := s.section(maxBodyBytes)
	if err != nil {
		return req, fmt.Errorf("header: %w", err)
	}
	if err := json.Unmarshal(header, &req); err != nil {
		return req, fmt.Errorf("%w: header: %v", errSubmitBody, err)
	}
	for i, t := range req.Tasks {
		if t.Payload != nil {
			return req, fmt.Errorf("%w: task %d has a payload in the header", errSubmitBody, i)
		}
	}
	for i := range req.Tasks {
		if req.Tasks[i].Payload, err = s.section(payloadLimit); err != nil {
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

// sectionReader reads the uvarint-framed sections of a binary submit body.
type sectionReader struct {
	r    io.Reader
	left int64 // bytes the body can still hold
	past error // what a section running past left means
	one  [1]byte
}

func (s *sectionReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(s.r, s.one[:]); err != nil {
		return 0, err
	}
	s.left--
	return s.one[0], nil
}

func (s *sectionReader) section(limit int) ([]byte, error) {
	n, err := binary.ReadUvarint(s)
	if err != nil {
		return nil, s.readErr(err)
	}
	if n > uint64(max(s.left, 0)) {
		return nil, s.past
	}
	if n > uint64(limit) {
		return nil, fmt.Errorf("%w (%d bytes, limit %d)", serialize.ErrPayloadTooLarge, n, limit)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(s.r, b); err != nil {
		return nil, s.readErr(err)
	}
	s.left -= int64(n)
	return b, nil
}

func (s *sectionReader) readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated", errSubmitBody)
	}
	return fmt.Errorf("%w: %v", errSubmitBody, err)
}
