package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"

	"globuscompute/internal/trace"
)

// Task and result bodies: the one encoding of a Task or Result wherever it
// travels as bytes — broker messages, the engine interchange's task and
// result frames, and the items of the durable admit and complete records.
// Every producer writes it with EncodeTask / EncodeResult and every consumer
// reads it with DecodeTask / DecodeResult, so a body crosses the SDK → web
// service → agent → worker → web service → SDK path without a JSON pass.
//
//	task:   0xBD ‖ 1 ‖ uvarint(flags) ‖ uuid(ID) ‖ uuid(FunctionID)
//	        ‖ uuid(EndpointID) ‖ code(Kind) ‖ bytesNil(Payload)
//	        ‖ the fields whose flag bit is set, in bit order
//	result: 0xBC ‖ 1 ‖ uvarint(flags) ‖ uuid(TaskID) ‖ code(State)
//	        ‖ uuid(EndpointID) ‖ bytesNil(Output)
//	        ‖ the fields whose flag bit is set, in bit order
//
// A uuid is 0 ‖ its 16 raw bytes when canonical, and uvarint(len+1) ‖ the
// string verbatim otherwise. A code is one byte, or 0 ‖ str for a value
// without one. Payload and Output keep nil distinct from empty (bytesNil).
// A time is a zigzag varint of Unix nanoseconds (years 1678–2262), and a
// zero time is a clear flag bit. Resources are three uvarints and a trace
// context is binWriter.traceCtx's. Both magic bytes are UTF-8 continuation
// bytes, so no JSON text starts with either.
const (
	taskBodyMagic   = 0xBD
	resultBodyMagic = 0xBC
	bodyVersion     = 1
)

// Task flag bits: which optional fields follow the fixed ones.
const (
	taskPayloadRef = 1 << iota
	taskResources
	taskUserIdentity
	taskGroupID
	taskRoutingGroup
	taskRerouted
	taskSubmitted
	taskAttempts
	taskTrace
	taskFlagsAll = 1<<iota - 1
)

// Result flag bits. DeadLettered is its bit alone.
const (
	resultOutputRef = 1 << iota
	resultError
	resultWorkerID
	resultStarted
	resultCompleted
	resultExecutionMS
	resultQueueDelay
	resultDeadLettered
	resultTrace
	resultFlagsAll = 1<<iota - 1
)

// One-byte codes for the known kinds and states; 0 means "string follows".
var (
	kindCodes  = [...]FunctionKind{1: KindPython, 2: KindShell, 3: KindMPI}
	stateCodes = [...]TaskState{1: StateReceived, 2: StateWaiting, 3: StateDelivered,
		4: StateRunning, 5: StateSuccess, 6: StateFailed, 7: StateCancelled}
)

// EncodeTask renders t as a task body, in one allocation.
func EncodeTask(t *Task) []byte {
	var flags uint64
	size := 2 + 2 + uuidSize(t.ID) + uuidSize(t.FunctionID) + uuidSize(t.EndpointID) +
		codeSize(kindCode(t.Kind), len(t.Kind)) + binary.MaxVarintLen64 + len(t.Payload)
	opt := func(bit uint64, present bool, n int) {
		if present {
			flags |= bit
			size += n
		}
	}
	opt(taskPayloadRef, t.PayloadRef != "", strSize(t.PayloadRef))
	opt(taskResources, !t.Resources.IsZero(), 3*binary.MaxVarintLen64)
	opt(taskUserIdentity, t.UserIdentity != "", strSize(t.UserIdentity))
	opt(taskGroupID, t.GroupID != "", uuidSize(t.GroupID))
	opt(taskRoutingGroup, t.RoutingGroup != "", uuidSize(t.RoutingGroup))
	opt(taskRerouted, t.Rerouted != 0, binary.MaxVarintLen64)
	opt(taskSubmitted, !t.Submitted.IsZero(), binary.MaxVarintLen64)
	opt(taskAttempts, t.Attempts != 0, binary.MaxVarintLen64)
	opt(taskTrace, t.Trace.Valid(), tcPackedSize)

	var buf bytes.Buffer
	buf.Grow(size)
	w := binWriter{buf: &buf}
	w.u8(taskBodyMagic)
	w.u8(bodyVersion)
	w.uvarint(flags)
	w.uuid(t.ID)
	w.uuid(t.FunctionID)
	w.uuid(t.EndpointID)
	w.code(kindCode(t.Kind), string(t.Kind))
	w.bytesNil(t.Payload)
	if flags&taskPayloadRef != 0 {
		w.str(t.PayloadRef)
	}
	if flags&taskResources != 0 {
		w.uvarint(uint64(t.Resources.NumNodes))
		w.uvarint(uint64(t.Resources.RanksPerNode))
		w.uvarint(uint64(t.Resources.NumRanks))
	}
	if flags&taskUserIdentity != 0 {
		w.str(t.UserIdentity)
	}
	if flags&taskGroupID != 0 {
		w.uuid(t.GroupID)
	}
	if flags&taskRoutingGroup != 0 {
		w.uuid(t.RoutingGroup)
	}
	if flags&taskRerouted != 0 {
		w.uvarint(uint64(t.Rerouted))
	}
	if flags&taskSubmitted != 0 {
		w.varint(t.Submitted.UnixNano())
	}
	if flags&taskAttempts != 0 {
		w.uvarint(uint64(t.Attempts))
	}
	if flags&taskTrace != 0 {
		w.traceCtx(t.Trace)
	}
	return buf.Bytes()
}

// EncodeResult renders r as a result body, in one allocation.
func EncodeResult(r *Result) []byte {
	var flags uint64
	size := 2 + 2 + uuidSize(r.TaskID) + codeSize(stateCode(r.State), len(r.State)) +
		uuidSize(r.EndpointID) + binary.MaxVarintLen64 + len(r.Output)
	opt := func(bit uint64, present bool, n int) {
		if present {
			flags |= bit
			size += n
		}
	}
	opt(resultOutputRef, r.OutputRef != "", strSize(r.OutputRef))
	opt(resultError, r.Error != "", strSize(r.Error))
	opt(resultWorkerID, r.WorkerID != "", strSize(r.WorkerID))
	opt(resultStarted, !r.Started.IsZero(), binary.MaxVarintLen64)
	opt(resultCompleted, !r.Completed.IsZero(), binary.MaxVarintLen64)
	opt(resultExecutionMS, math.Float64bits(r.ExecutionMS) != 0, 8)
	opt(resultQueueDelay, r.QueueDelay != 0, binary.MaxVarintLen64)
	opt(resultDeadLettered, r.DeadLettered, 0)
	opt(resultTrace, r.Trace.Valid(), tcPackedSize)

	var buf bytes.Buffer
	buf.Grow(size)
	w := binWriter{buf: &buf}
	w.u8(resultBodyMagic)
	w.u8(bodyVersion)
	w.uvarint(flags)
	w.uuid(r.TaskID)
	w.code(stateCode(r.State), string(r.State))
	w.uuid(r.EndpointID)
	w.bytesNil(r.Output)
	if flags&resultOutputRef != 0 {
		w.str(r.OutputRef)
	}
	if flags&resultError != 0 {
		w.str(r.Error)
	}
	if flags&resultWorkerID != 0 {
		w.str(r.WorkerID)
	}
	if flags&resultStarted != 0 {
		w.varint(r.Started.UnixNano())
	}
	if flags&resultCompleted != 0 {
		w.varint(r.Completed.UnixNano())
	}
	if flags&resultExecutionMS != 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.ExecutionMS))
		w.buf.Write(b[:])
	}
	if flags&resultQueueDelay != 0 {
		w.varint(int64(r.QueueDelay))
	}
	if flags&resultTrace != 0 {
		w.traceCtx(r.Trace)
	}
	return buf.Bytes()
}

// DecodeTask decodes a task body. A body starting with '{' is a JSON Task,
// which nothing in the tree encodes any more; two peers still hand one over:
// data dirs whose WAL was written before task bodies were binary (the
// webservice stored-payloads fixture is one), and the benchmark's probes,
// which publish json.Marshal(task) bodies to AdmitTasks and to a live agent.
// Every error wraps ErrBadFrame, and the decoded task shares no memory with
// b.
func DecodeTask(b []byte) (Task, error) {
	var t Task
	if len(b) > 0 && b[0] == '{' {
		if err := json.Unmarshal(b, &t); err != nil {
			return Task{}, fmt.Errorf("%w: json task body: %v", ErrBadFrame, err)
		}
		return t, nil
	}
	r := bodyReader{in: binReader{p: b}}
	flags := r.header(taskBodyMagic, taskFlagsAll)
	r.strs.Grow(arenaHint(3, flags&(taskGroupID|taskRoutingGroup)))
	id, fn, ep := r.uuid(), r.uuid(), r.uuid()
	kindCode, kind := r.code(len(kindCodes))
	t.Payload = r.bytesNil()
	var ref, user, group, routing span
	if flags&taskPayloadRef != 0 {
		ref = r.str()
	}
	if flags&taskResources != 0 {
		t.Resources = ResourceSpec{NumNodes: int(r.uvarint()), RanksPerNode: int(r.uvarint()), NumRanks: int(r.uvarint())}
	}
	if flags&taskUserIdentity != 0 {
		user = r.str()
	}
	if flags&taskGroupID != 0 {
		group = r.uuid()
	}
	if flags&taskRoutingGroup != 0 {
		routing = r.uuid()
	}
	if flags&taskRerouted != 0 {
		t.Rerouted = int(r.uvarint())
	}
	if flags&taskSubmitted != 0 {
		t.Submitted = r.time()
	}
	if flags&taskAttempts != 0 {
		t.Attempts = int(r.uvarint())
	}
	if flags&taskTrace != 0 {
		t.Trace, _ = r.trace()
	}
	if err := r.done("task"); err != nil {
		return Task{}, err
	}
	s := r.strs.String()
	t.ID, t.FunctionID, t.EndpointID = UUID(id.in(s)), UUID(fn.in(s)), UUID(ep.in(s))
	t.Kind = kindCodes[kindCode]
	if kindCode == 0 {
		t.Kind = FunctionKind(kind.in(s))
	}
	t.PayloadRef, t.UserIdentity = ref.in(s), user.in(s)
	t.GroupID, t.RoutingGroup = UUID(group.in(s)), UUID(routing.in(s))
	return t, nil
}

// DecodeResult decodes a result body. A body starting with '{' is a JSON
// Result, which nothing in the tree encodes any more; data dirs whose WAL was
// written before result bodies were binary still hold them. Every error
// wraps ErrBadFrame, and the decoded result shares no memory with b.
func DecodeResult(b []byte) (Result, error) {
	res, _, err := DecodeResultAt(b)
	return res, err
}

// DecodeResultAt is DecodeResult that also reports where the body's trace
// context lies when it is in the packed form EncodeResult writes for a
// context with a span: traceAt is its offset, for RetraceResult, and -1
// when the body has no such context (none, a verbatim one, or JSON).
func DecodeResultAt(b []byte) (res Result, traceAt int, err error) {
	if len(b) > 0 && b[0] == '{' {
		if err := json.Unmarshal(b, &res); err != nil {
			return Result{}, -1, fmt.Errorf("%w: json result body: %v", ErrBadFrame, err)
		}
		return res, -1, nil
	}
	r := bodyReader{in: binReader{p: b}}
	flags := r.header(resultBodyMagic, resultFlagsAll)
	r.strs.Grow(arenaHint(2, flags&resultWorkerID))
	id := r.uuid()
	stateCode, state := r.code(len(stateCodes))
	ep := r.uuid()
	res.Output = r.bytesNil()
	var ref, msg, worker span
	if flags&resultOutputRef != 0 {
		ref = r.str()
	}
	if flags&resultError != 0 {
		msg = r.str()
	}
	if flags&resultWorkerID != 0 {
		worker = r.str()
	}
	if flags&resultStarted != 0 {
		res.Started = r.time()
	}
	if flags&resultCompleted != 0 {
		res.Completed = r.time()
	}
	if flags&resultExecutionMS != 0 {
		if b := r.take(8); b != nil {
			res.ExecutionMS = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
	}
	if flags&resultQueueDelay != 0 {
		res.QueueDelay = time.Duration(r.varint())
	}
	res.DeadLettered = flags&resultDeadLettered != 0
	traceAt = -1
	if flags&resultTrace != 0 {
		at := r.in.off
		var packed bool
		if res.Trace, packed = r.trace(); packed {
			traceAt = at
		}
	}
	if err := r.done("result"); err != nil {
		return Result{}, -1, err
	}
	s := r.strs.String()
	res.TaskID, res.EndpointID = UUID(id.in(s)), UUID(ep.in(s))
	res.State = stateCodes[stateCode]
	if stateCode == 0 {
		res.State = TaskState(state.in(s))
	}
	res.OutputRef, res.Error, res.WorkerID = ref.in(s), msg.in(s), worker.in(s)
	return res, traceAt, nil
}

// RetraceResult returns a copy of body, a result body whose packed trace
// context DecodeResultAt found at traceAt, re-pointed at tc: the bytes
// EncodeResult writes for the decoded result with its Trace set to tc,
// without encoding it again. ok is false when the copy cannot be patched
// (no packed context, or tc without a span); then the caller encodes. body
// itself is never written: a broker may deliver it again.
func RetraceResult(body []byte, traceAt int, tc trace.Context) (out []byte, ok bool) {
	if traceAt < 0 || traceAt+tcPackedSize != len(body) || tc.SpanID.IsZero() {
		return nil, false
	}
	out = bytes.Clone(body)
	copy(out[traceAt+tcTraceAt:], tc.TraceID[:])
	copy(out[traceAt+tcSpanAt:], tc.SpanID[:])
	return out, true
}

// --- encoding helpers ---

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// strSize is what binWriter.str writes for s.
func strSize(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// uuidSize is what binWriter.uuid writes for u.
func uuidSize(u UUID) int {
	if u.Valid() {
		return 17
	}
	return uvarintLen(uint64(len(u))+1) + len(u)
}

func codeSize(code byte, n int) int {
	if code != 0 {
		return 1
	}
	return 1 + uvarintLen(uint64(n)) + n
}

func kindCode(k FunctionKind) byte {
	for i, c := range kindCodes {
		if i > 0 && c == k {
			return byte(i)
		}
	}
	return 0
}

func stateCode(s TaskState) byte {
	for i, c := range stateCodes {
		if i > 0 && c == s {
			return byte(i)
		}
	}
	return 0
}

// --- decoding helpers ---

// arenaHint sizes a body's string arena: uuids canonical UUIDs (36 bytes
// each) plus up to 48 bytes per flag in optional — a UUID or a worker ID;
// a trace context decodes into the value, not the arena — and a little
// room for short names.
// A longer body grows the arena once more.
func arenaHint(uuids int, optional uint64) int {
	return 36*uuids + 48*bits.OnesCount64(optional) + 16
}

// span is one string field's place in a body's string arena.
type span struct{ lo, hi int }

// in returns the field's string. An empty field is the literal "", not an
// empty slice of s: that would still point into the arena and keep it
// alive for as long as the field is kept (a task row keeps a result's empty
// Error and OutputRef for the retention period).
func (sp span) in(s string) string {
	if sp.lo == sp.hi {
		return ""
	}
	return s[sp.lo:sp.hi]
}

// bodyReader decodes a body through binReader. The first malformed field
// latches err and every later read returns a zero value, so a decoder checks
// once, at done. String fields land in strs, which becomes a single string
// at the end: one allocation for every ID, name and message of the body.
type bodyReader struct {
	in   binReader
	strs strings.Builder
	err  error
}

func (r *bodyReader) ok(err error) bool {
	if err != nil && r.err == nil {
		r.err = err
	}
	return r.err == nil
}

// header checks the magic and version and returns the flags.
func (r *bodyReader) header(magic byte, known uint64) uint64 {
	m := r.u8()
	if v := r.u8(); r.err == nil && (m != magic || v != bodyVersion) {
		r.ok(fmt.Errorf("%w: body starts %#02x %d, want %#02x %d", ErrBadFrame, m, v, magic, bodyVersion))
	}
	flags := r.uvarint()
	if flags&^known != 0 {
		r.ok(fmt.Errorf("%w: unknown body flags %#x", ErrBadFrame, flags&^known))
	}
	return flags
}

func (r *bodyReader) u8() byte {
	if r.err != nil {
		return 0
	}
	b, err := r.in.u8()
	r.ok(err)
	return b
}

func (r *bodyReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := r.in.uvarint()
	r.ok(err)
	return v
}

func (r *bodyReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.in.p[r.in.off:])
	if n <= 0 {
		r.ok(fmt.Errorf("%w: bad varint at byte %d", ErrBadFrame, r.in.off))
		return 0
	}
	r.in.off += n
	return v
}

func (r *bodyReader) time() time.Time {
	ns := r.varint()
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

func (r *bodyReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	b, err := r.in.take(n)
	r.ok(err)
	return b
}

func (r *bodyReader) bytesNil() []byte {
	if r.err != nil {
		return nil
	}
	b, err := r.in.bytesNil()
	r.ok(err)
	return b
}

// add copies p into the arena.
func (r *bodyReader) add(p []byte) span {
	lo := r.strs.Len()
	r.strs.Write(p)
	return span{lo, r.strs.Len()}
}

func (r *bodyReader) str() span {
	if r.err != nil {
		return span{}
	}
	b, err := r.in.chunk()
	if !r.ok(err) {
		return span{}
	}
	return r.add(b)
}

// uuid reads what binWriter.uuid writes, rendering a packed UUID in its
// canonical form.
func (r *bodyReader) uuid() span {
	n := r.uvarint()
	if r.err != nil {
		return span{}
	}
	if n == 0 {
		raw := r.take(16)
		if r.err != nil {
			return span{}
		}
		lo := r.strs.Len()
		var buf [36]byte
		r.strs.Write(appendUUID(buf[:0], raw))
		return span{lo, r.strs.Len()}
	}
	if n-1 > uint64(r.in.rem()) {
		r.ok(fmt.Errorf("%w: uuid length %d exceeds remaining %d bytes", ErrBadFrame, n-1, r.in.rem()))
		return span{}
	}
	return r.add(r.take(int(n - 1)))
}

// code reads a one-byte code below limit, or 0 and the string that follows
// it.
func (r *bodyReader) code(limit int) (byte, span) {
	c := r.u8()
	if r.err != nil {
		return 0, span{}
	}
	if c == 0 {
		return 0, r.str()
	}
	if int(c) >= limit {
		r.ok(fmt.Errorf("%w: unknown code %d", ErrBadFrame, c))
		return 0, span{}
	}
	return c, span{}
}

// trace reads a trace context (binReader.traceCtx).
func (r *bodyReader) trace() (trace.Context, bool) {
	if r.err != nil {
		return trace.Context{}, false
	}
	tc, packed, err := r.in.traceCtx()
	r.ok(err)
	return tc, packed
}

func (r *bodyReader) done(what string) error {
	if r.err == nil && r.in.rem() != 0 {
		r.ok(fmt.Errorf("%w: %d trailing bytes after a %s body", ErrBadFrame, r.in.rem(), what))
	}
	return r.err
}
