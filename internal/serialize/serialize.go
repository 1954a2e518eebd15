// Package serialize holds the service's payload size policy: task arguments
// and results above the hosted service's 10 MB cap must travel out of band
// (object store reference or ProxyStore proxy), and payloads above a smaller
// inline threshold are spilled from the task record to the object store.
//
// It also implements the tagged multi-codec envelope (JSON for
// interoperable values, gob for Go-native graphs) in which ProxyStore keeps
// proxied objects, so a reader decodes without guessing. Task payloads do
// not use it: python payloads are protocol.PythonSpec (see
// protocol.EncodePythonSpec), shell and MPI payloads protocol.ShellSpec.
package serialize

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MaxPayload is the hosted service's documented 10 MB cap on task arguments
// and results passed through the cloud.
const MaxPayload = 10 << 20

// DefaultInlineThreshold is the size above which the web service spills a
// payload to the object store rather than carrying it inline through the
// state store and queues.
const DefaultInlineThreshold = 64 << 10

// ErrPayloadTooLarge is returned when an encoded payload exceeds MaxPayload.
// Callers are expected to switch to pass-by-reference (see proxystore).
var ErrPayloadTooLarge = errors.New("serialize: payload exceeds 10 MB service limit")

// Codec identifies an encoding scheme inside the envelope.
type Codec byte

const (
	// CodecJSON is the default interoperable encoding.
	CodecJSON Codec = 'J'
	// CodecGob encodes Go-native values (worker and client both in Go).
	CodecGob Codec = 'G'
	// CodecRaw wraps a pre-encoded byte slice without interpretation.
	CodecRaw Codec = 'R'
)

// flag bits in the envelope header's second byte.
const flagGzip = 0x1

// header is: codec byte, flags byte, then body.
const headerLen = 2

// Options configures encoding behaviour.
type Options struct {
	Codec Codec
	// Compress gzips bodies larger than CompressAbove bytes.
	Compress      bool
	CompressAbove int
	// Limit overrides MaxPayload when positive; tests use small limits.
	Limit int
}

func (o Options) limit() int {
	if o.Limit > 0 {
		return o.Limit
	}
	return MaxPayload
}

// Encode serializes v under opts into a self-describing envelope.
func Encode(v any, opts Options) ([]byte, error) {
	var body []byte
	switch opts.Codec {
	case CodecJSON, 0:
		b, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("serialize: json: %w", err)
		}
		body = b
		opts.Codec = CodecJSON
	case CodecGob:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil, fmt.Errorf("serialize: gob: %w", err)
		}
		body = buf.Bytes()
	case CodecRaw:
		raw, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("serialize: raw codec requires []byte, got %T", v)
		}
		body = raw
	default:
		return nil, fmt.Errorf("serialize: unknown codec %q", opts.Codec)
	}

	var flags byte
	if opts.Compress && len(body) > opts.CompressAbove {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(body); err != nil {
			return nil, fmt.Errorf("serialize: gzip: %w", err)
		}
		if err := zw.Close(); err != nil {
			return nil, fmt.Errorf("serialize: gzip close: %w", err)
		}
		if buf.Len() < len(body) {
			body = buf.Bytes()
			flags |= flagGzip
		}
	}

	out := make([]byte, headerLen+len(body))
	out[0] = byte(opts.Codec)
	out[1] = flags
	copy(out[headerLen:], body)
	if len(out) > opts.limit() {
		return nil, fmt.Errorf("%w (encoded %d bytes, limit %d)", ErrPayloadTooLarge, len(out), opts.limit())
	}
	return out, nil
}

// Decode deserializes an envelope produced by Encode into v. For CodecRaw,
// v must be a *[]byte.
func Decode(data []byte, v any) error {
	if len(data) < headerLen {
		return fmt.Errorf("serialize: envelope too short (%d bytes)", len(data))
	}
	codec, flags := Codec(data[0]), data[1]
	body := data[headerLen:]
	if flags&flagGzip != 0 {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("serialize: gunzip: %w", err)
		}
		decoded, err := io.ReadAll(zr)
		if err != nil {
			return fmt.Errorf("serialize: gunzip read: %w", err)
		}
		if err := zr.Close(); err != nil {
			return fmt.Errorf("serialize: gunzip close: %w", err)
		}
		body = decoded
	}
	switch codec {
	case CodecJSON:
		if err := json.Unmarshal(body, v); err != nil {
			return fmt.Errorf("serialize: json decode: %w", err)
		}
	case CodecGob:
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
			return fmt.Errorf("serialize: gob decode: %w", err)
		}
	case CodecRaw:
		p, ok := v.(*[]byte)
		if !ok {
			return fmt.Errorf("serialize: raw codec requires *[]byte, got %T", v)
		}
		*p = append((*p)[:0], body...)
	default:
		return fmt.Errorf("serialize: unknown codec byte %q", codec)
	}
	return nil
}
