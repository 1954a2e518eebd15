package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
)

// Binary python-payload envelope. A KindPython payload is either the JSON
// PythonSpec (what hand-written clients, older SDKs and task logs written
// before the envelope carry) or this envelope, which frames the same fields
// with uvarint lengths so that neither the SDK nor the worker scans argument
// bytes as JSON text to find where one ends:
//
//	0xBE ‖ version ‖ str(entrypoint)
//	     ‖ uvarint(len(args))   ‖ chunk(arg)…
//	     ‖ uvarint(len(kwargs)) ‖ (str(key) ‖ chunk(value))…   keys sorted
//
// Each argument is still the JSON encoding of that one value. 0xBE is a
// UTF-8 continuation byte, so no JSON text can start with it and
// DecodePythonSpec tells the two forms apart by the first byte.
const (
	pySpecTag     = 0xBE
	pySpecVersion = 1
)

// EncodePythonSpec renders spec in the binary python-payload envelope.
func EncodePythonSpec(spec PythonSpec) []byte {
	size := 2 + binary.MaxVarintLen64*(3+len(spec.Args)+2*len(spec.Kwargs)) + len(spec.Entrypoint)
	for _, a := range spec.Args {
		size += len(a)
	}
	keys := make([]string, 0, len(spec.Kwargs))
	for k, v := range spec.Kwargs {
		keys = append(keys, k)
		size += len(k) + len(v)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.Grow(size)
	w := &binWriter{buf: &buf}
	w.u8(pySpecTag)
	w.u8(pySpecVersion)
	w.str(spec.Entrypoint)
	w.uvarint(uint64(len(spec.Args)))
	for _, a := range spec.Args {
		w.chunk(a)
	}
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.chunk(spec.Kwargs[k])
	}
	return buf.Bytes()
}

// DecodePythonSpec decodes a KindPython payload in either form: the binary
// envelope when b starts with its tag, the JSON PythonSpec otherwise.
// Arguments are copied out of b, never aliased, so b may be a buffer the
// caller shares or reuses.
func DecodePythonSpec(b []byte) (PythonSpec, error) {
	if len(b) == 0 || b[0] != pySpecTag {
		var js PythonSpec // as in DecodeTask: only this branch's spec escapes
		err := DecodePayload(b, &js)
		return js, err
	}
	var spec PythonSpec
	r := &binReader{p: b, off: 1}
	if err := r.pythonSpec(&spec); err != nil {
		return PythonSpec{}, fmt.Errorf("protocol: decode python payload: %w", err)
	}
	return spec, nil
}

func (r *binReader) pythonSpec(spec *PythonSpec) error {
	ver, err := r.u8()
	if err != nil {
		return err
	}
	if ver != pySpecVersion {
		return fmt.Errorf("%w: unsupported python payload version %d (have %d)", ErrBadFrame, ver, pySpecVersion)
	}
	if spec.Entrypoint, err = r.str(); err != nil {
		return err
	}
	n, err := r.length() // every argument costs at least its length byte
	if err != nil {
		return err
	}
	if n > 0 {
		spec.Args = make([]json.RawMessage, n)
		for i := range spec.Args {
			a, err := r.chunk()
			if err != nil {
				return err
			}
			spec.Args[i] = append(json.RawMessage(nil), a...)
		}
	}
	if n, err = r.length(); err != nil {
		return err
	}
	if n > 0 {
		spec.Kwargs = make(map[string]json.RawMessage, n)
		for i := 0; i < n; i++ {
			k, err := r.str()
			if err != nil {
				return err
			}
			v, err := r.chunk()
			if err != nil {
				return err
			}
			spec.Kwargs[k] = append(json.RawMessage(nil), v...)
		}
	}
	if r.rem() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, r.rem())
	}
	return nil
}
