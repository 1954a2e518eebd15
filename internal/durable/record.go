package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"

	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
)

// Binary WAL records. The five operations on the per-task path — admit,
// batch transition and batch complete in the state log, publish and ack in
// the broker log — are written as varint-framed binary records whose items
// are the task, result and message bodies exactly as their producer already
// encoded them (protocol.EncodeTask / EncodeResult): the same bytes go to
// the log and to the queue, with no second encoding pass. Items written
// before bodies were binary are JSON, and replay reads them through the
// same decoders. Every other operation stays a JSON record. A binary record
// starts with a kind byte that is never '{', so replay tells the two apart
// per record, the way protocol.FrameReader tells frames apart; a data dir
// written before this encoding existed (all JSON) replays through the same
// reader.
const (
	recAdmitTasks = 1 + iota
	recTransitionTasks
	recCompleteTasks
	recPub
	recAck
)

var errBadRecord = errors.New("durable: bad binary record")

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// encodeMutation renders m as a WAL record: binary for the hot task
// operations, JSON for everything else. A binary record is written into a
// buffer sized for it up front, as encodePub does, so a batch of large
// bodies is copied once rather than regrown.
func encodeMutation(m statestore.Mutation) ([]byte, error) {
	var kind byte
	switch m.Op {
	case statestore.OpAdmitTasks:
		kind = recAdmitTasks
	case statestore.OpTransitionTasks:
		kind = recTransitionTasks
	case statestore.OpCompleteTasks:
		kind = recCompleteTasks
	default:
		return json.Marshal(m)
	}
	at, err := m.At.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var items [][]byte
	switch kind {
	case recAdmitTasks:
		items = itemBodies(m.Bodies, len(m.Tasks), func(i int) []byte { return protocol.EncodeTask(&m.Tasks[i]) })
	case recCompleteTasks:
		items = itemBodies(m.Bodies, len(m.Results), func(i int) []byte { return protocol.EncodeResult(&m.Results[i]) })
	}
	size := 1 + 3*binary.MaxVarintLen64 + len(at) + len(m.State)
	for _, p := range items {
		size += binary.MaxVarintLen64 + len(p)
	}
	for _, id := range m.TaskIDs {
		size += binary.MaxVarintLen64 + len(id)
	}
	b := appendBytes(append(make([]byte, 0, size), kind), at)
	if kind != recTransitionTasks {
		b = binary.AppendUvarint(b, uint64(len(items)))
		for _, p := range items {
			b = appendBytes(b, p)
		}
		return b, nil
	}
	b = appendBytes(b, []byte(m.State))
	b = binary.AppendUvarint(b, uint64(len(m.TaskIDs)))
	for _, id := range m.TaskIDs {
		b = appendBytes(b, []byte(id))
	}
	return b, nil
}

// itemBodies returns n bodies: bodies[i] where the producer supplied it,
// encode(i) where not.
func itemBodies(bodies [][]byte, n int, encode func(int) []byte) [][]byte {
	if len(bodies) >= n {
		return bodies[:n]
	}
	out := make([][]byte, n)
	copy(out, bodies)
	for i := len(bodies); i < n; i++ {
		out[i] = encode(i)
	}
	return out
}

// decodeMutation is encodeMutation's inverse, sniffing the encoding.
func decodeMutation(p []byte) (statestore.Mutation, error) {
	var m statestore.Mutation
	if len(p) > 0 && p[0] == '{' {
		return m, json.Unmarshal(p, &m)
	}
	r := recReader{p: p}
	kind := r.uvarint()
	if err := m.At.UnmarshalBinary(r.bytes()); err != nil {
		r.fail()
	}
	// each reads the item count, then items one at a time, so a corrupt
	// count allocates nothing beyond what the record's bytes really hold.
	each := func(item func()) {
		for n := r.uvarint(); n > 0 && r.err == nil; n-- {
			item()
		}
	}
	switch kind {
	case recAdmitTasks:
		m.Op = statestore.OpAdmitTasks
		each(func() {
			if t, ok := decodeItem(&r, protocol.DecodeTask); ok {
				m.Tasks = append(m.Tasks, t)
			}
		})
	case recTransitionTasks:
		m.Op, m.State = statestore.OpTransitionTasks, protocol.TaskState(r.bytes())
		each(func() { m.TaskIDs = append(m.TaskIDs, protocol.UUID(r.bytes())) })
	case recCompleteTasks:
		m.Op = statestore.OpCompleteTasks
		each(func() {
			if res, ok := decodeItem(&r, protocol.DecodeResult); ok {
				m.Results = append(m.Results, res)
			}
		})
	default:
		r.fail()
	}
	return m, r.done()
}

// brokerRecord is one journaled broker operation. Declare and delete are
// written as this struct's JSON; pub and ack are binary and decode into it.
type brokerRecord struct {
	Op     string   `json:"op"` // declare | delete | pub | ack
	Queue  string   `json:"q"`
	IDs    []uint64 `json:"ids,omitempty"`
	Bodies [][]byte `json:"bodies,omitempty"`
}

func encodePub(queue string, ids []uint64, bodies [][]byte) []byte {
	size := 2*binary.MaxVarintLen64 + len(queue)
	for _, body := range bodies {
		size += 2*binary.MaxVarintLen64 + len(body)
	}
	b := appendBytes(append(make([]byte, 0, size), recPub), []byte(queue))
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for i, id := range ids {
		b = binary.AppendUvarint(b, id)
		b = appendBytes(b, bodies[i])
	}
	return b
}

func encodeAck(queue string, ids []uint64) []byte {
	b := appendBytes([]byte{recAck}, []byte(queue))
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, id)
	}
	return b
}

// decodeBrokerRecord reads one broker-log record in either encoding. Decoded
// bodies alias p.
func decodeBrokerRecord(p []byte) (brokerRecord, error) {
	var rec brokerRecord
	if len(p) > 0 && p[0] == '{' {
		return rec, json.Unmarshal(p, &rec)
	}
	r := recReader{p: p}
	kind := r.uvarint()
	rec.Queue = string(r.bytes())
	switch kind {
	case recPub:
		rec.Op = "pub"
	case recAck:
		rec.Op = "ack"
	default:
		r.fail()
	}
	for n := r.uvarint(); n > 0 && r.err == nil; n-- {
		rec.IDs = append(rec.IDs, r.uvarint())
		if kind == recPub {
			rec.Bodies = append(rec.Bodies, r.bytes())
		}
	}
	return rec, r.done()
}

// recReader consumes a binary record. The first malformed field latches err
// and every later read returns zero, so decoders check once at the end.
type recReader struct {
	p   []byte
	err error
}

func (r *recReader) fail() { r.p, r.err = nil, errBadRecord }

func (r *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.p = r.p[n:]
	return v
}

// bytes reads a length-prefixed field, aliasing the record.
func (r *recReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.p)) {
		r.fail()
		return nil
	}
	b := r.p[:n:n]
	r.p = r.p[n:]
	return b
}

// decodeItem reads one length-prefixed body and decodes it.
func decodeItem[T any](r *recReader, decode func([]byte) (T, error)) (T, bool) {
	b := r.bytes()
	if r.err != nil {
		var zero T
		return zero, false
	}
	v, err := decode(b)
	if err != nil {
		r.fail()
	}
	return v, err == nil
}

// done reports the latched error, or trailing garbage.
func (r *recReader) done() error {
	if len(r.p) != 0 {
		r.fail()
	}
	return r.err
}
