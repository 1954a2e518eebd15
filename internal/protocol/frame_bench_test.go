package protocol

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// benchEnvelope is an interchange-style frame: a task with a 512-byte
// payload as a JSON body carried verbatim under binary framing.
func benchEnvelope() Envelope {
	task := Task{ID: NewUUID(), Kind: KindPython, Payload: bytes.Repeat([]byte("p"), 512)}
	return MustEnvelope(EnvTask, "17", task)
}

// BenchmarkFrameWrite measures the pooled encode path of a raw-body frame
// (run with -benchmem; the point of the sync.Pool is the allocs/op column).
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

// benchBinEnvelope is a broker frame: the same 512-byte task as the one
// body of a structured publish_batch.
func benchBinEnvelope() Envelope {
	task := Task{ID: NewUUID(), Kind: KindPython, Payload: bytes.Repeat([]byte("p"), 512)}
	body, err := json.Marshal(task)
	if err != nil {
		panic(err)
	}
	return Envelope{Type: EnvPublishBatch, ID: "17",
		Bin: &PublishBatchBody{Queue: "tasks." + string(NewUUID()), Bodies: [][]byte{body}}}
}

// BenchmarkFrameWriteBinary measures the structured encode path: no JSON
// marshal, no base64, varint lengths into the pooled frame buffer.
func BenchmarkFrameWriteBinary(b *testing.B) {
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

// benchRead measures FrameReader on one frame read over and over.
func benchRead(b *testing.B, env Envelope) {
	var raw bytes.Buffer
	if err := NewFrameWriter(&raw).Write(env); err != nil {
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

// BenchmarkFrameReadBinary measures the structured decode path.
func BenchmarkFrameReadBinary(b *testing.B) { benchRead(b, benchBinEnvelope()) }

// BenchmarkFrameRead measures the raw-body decode path with the
// reusable read buffer.
func BenchmarkFrameRead(b *testing.B) { benchRead(b, benchEnvelope()) }
