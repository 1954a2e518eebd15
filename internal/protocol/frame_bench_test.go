package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"testing"
)

// benchEnvelope is a representative hot-path frame: a 512-byte task body
// plus correlation ID, about what a publish envelope carries.
func benchEnvelope() Envelope {
	task := Task{ID: NewUUID(), Kind: KindPython, Payload: bytes.Repeat([]byte("p"), 512)}
	return MustEnvelope(EnvPublish, "17", task)
}

// BenchmarkFrameWrite measures the pooled encode path (run with -benchmem;
// the point of the sync.Pool is the allocs/op column). Before buffer reuse
// the writer allocated a fresh marshal slice per envelope (see
// BenchmarkFrameWriteUnpooled for that baseline).
func BenchmarkFrameWrite(b *testing.B) {
	env := benchEnvelope()
	w := NewFrameWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameWriteUnpooled reproduces the pre-PR3 writer (json.Marshal
// into a new slice per envelope) so `-benchmem` shows the drop side by side.
func BenchmarkFrameWriteUnpooled(b *testing.B) {
	env := benchEnvelope()
	bw := bufio.NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := json.Marshal(env)
		if err != nil {
			b.Fatal(err)
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
		bw.Write(hdr[:])
		bw.Write(p)
		bw.Flush()
	}
}

// benchBinEnvelope is the binary-codec equivalent of benchEnvelope: the
// same 512-byte task body as a structured publish envelope.
func benchBinEnvelope() Envelope {
	task := Task{ID: NewUUID(), Kind: KindPython, Payload: bytes.Repeat([]byte("p"), 512)}
	body, err := json.Marshal(task)
	if err != nil {
		panic(err)
	}
	return Envelope{Type: EnvPublish, ID: "17",
		Bin: &PublishBody{Queue: "tasks." + string(NewUUID()), Body: body}}
}

// BenchmarkFrameWriteBinBodyJSON measures the JSON writer fed a structured
// Bin body: the body marshals through the second pooled scratch buffer, so
// allocs/op stays flat against the premarshaled path above.
func BenchmarkFrameWriteBinBodyJSON(b *testing.B) {
	env := benchBinEnvelope()
	w := NewFrameWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameWriteBinary measures the binary codec's encode path: no
// JSON marshal, no base64, varint lengths into the pooled frame buffer.
func BenchmarkFrameWriteBinary(b *testing.B) {
	env := benchBinEnvelope()
	w := NewFrameWriter(io.Discard)
	w.EnableBinary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameReadBinary measures the binary decode path against
// BenchmarkFrameRead's JSON unmarshal.
func BenchmarkFrameReadBinary(b *testing.B) {
	var raw bytes.Buffer
	w := NewFrameWriter(&raw)
	w.EnableBinary()
	if err := w.Write(benchBinEnvelope()); err != nil {
		b.Fatal(err)
	}
	frame := raw.Bytes()
	rd := bytes.NewReader(frame)
	r := NewFrameReader(rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameRead measures the reusable-read-buffer decode path.
func BenchmarkFrameRead(b *testing.B) {
	var raw bytes.Buffer
	w := NewFrameWriter(&raw)
	if err := w.Write(benchEnvelope()); err != nil {
		b.Fatal(err)
	}
	frame := raw.Bytes()
	rd := bytes.NewReader(frame)
	r := NewFrameReader(rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
}
