package statestore

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/trace"
)

// The task table keeps one fixed-size taskRow per task, keyed by the task ID
// packed to its 16 raw bytes, so a retained task costs its row and, when it
// has one, its tail — not a TaskRecord and the strings it points at. The
// strings every row repeats (function, endpoint, group, routing group, user)
// are uint32 handles into the shard's reference-counted intern table.
// TaskRecord is the read view, built on read.

// taskKey is a canonical task ID packed to its 16 raw bytes (UUID.Pack). An
// ID that does not pack names no task: insertTasks refuses it.
type taskKey = [16]byte

// shardOf folds the key's bytes to a task-shard index.
func shardOf(k taskKey) int {
	h := binary.LittleEndian.Uint64(k[:8]) ^ binary.LittleEndian.Uint64(k[8:])
	h ^= h >> 32
	h ^= h >> 16
	h ^= h >> 8
	return int(h & (taskShards - 1))
}

// groupKeys packs n task IDs and buckets their indices by shard, input order
// kept within a bucket. bad(i) is called for each ID that is not canonical.
// The buckets share one backing slice, filled by a counting pass, so a
// batch costs two allocations however large it is.
func groupKeys(n int, id func(int) protocol.UUID, bad func(int)) ([]taskKey, [taskShards][]int) {
	keys := make([]taskKey, n)
	var counts [taskShards]int
	for i := range keys {
		k, ok := id(i).Pack()
		if !ok {
			bad(i)
			continue
		}
		keys[i] = k
		counts[shardOf(k)]++
	}
	var groups [taskShards][]int
	backing := make([]int, n)
	at := 0
	for si, c := range counts {
		groups[si] = backing[at : at : at+c]
		at += c
	}
	for i, k := range keys {
		// A zero key is a bad ID, or the nil UUID.
		if k == (taskKey{}) && !id(i).Valid() {
			continue
		}
		groups[shardOf(k)] = append(groups[shardOf(k)], i)
	}
	return keys, groups
}

// stateNames maps a row's one-byte state code to its state; code 0 is
// unused, so a zero row reads as no state.
var stateNames = [...]protocol.TaskState{"",
	protocol.StateReceived, protocol.StateWaiting, protocol.StateDelivered, protocol.StateRunning,
	protocol.StateSuccess, protocol.StateFailed, protocol.StateCancelled}

const numStates = len(stateNames)

// stateCode returns st's code, or 0 for a state the table does not know.
func stateCode(st protocol.TaskState) uint8 {
	for c := 1; c < numStates; c++ {
		if stateNames[c] == st {
			return uint8(c)
		}
	}
	return 0
}

// kindNames maps a row's one-byte kind code to its function kind. A kind
// without a code travels in the tail.
var kindNames = [...]protocol.FunctionKind{"", protocol.KindPython, protocol.KindShell, protocol.KindMPI}

func kindCode(k protocol.FunctionKind) (uint8, bool) {
	for c, name := range kindNames {
		if name == k {
			return uint8(c), true
		}
	}
	return 0, false
}

// taskRow is one task: 80 bytes, one pointer.
type taskRow struct {
	state, kind uint8
	flags       uint8 // tail* bits: which fields the tail carries
	// Intern handles; 0 is the empty string.
	fn, ep, group, routing, user uint32
	// Unix nanoseconds; 0 is the zero time.
	submitted, created, updated, completed int64
	// tail carries the variable fields flags names, in the order of the
	// tail* bits, each uvarint-length-prefixed except the trace context, 24
	// raw bytes, and the result, which runs to the end. It is nil when there
	// is nothing to carry, and replaced, never written in place, so a view
	// may alias it.
	tail []byte
}

// traceSize is the raw trace context a tail carries.
const traceSize = len(trace.TraceID{}) + len(trace.SpanID{})

// Tail fields, in tail order.
const (
	tailKind       = 1 << iota // a function kind without a code
	tailPayloadRef             // Task.PayloadRef
	tailInts                   // Resources, Rerouted, Attempts: five varints
	tailTrace                  // trace ID and span ID, 24 raw bytes
	tailResultRef
	tailError
	tailResult // the inline result, unprefixed
)

func appendField(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendTaskTail appends the variable fields of t to dst and returns the
// flags naming them.
func appendTaskTail(dst []byte, t *protocol.Task) ([]byte, uint8) {
	var flags uint8
	if _, ok := kindCode(t.Kind); !ok {
		flags |= tailKind
		dst = appendField(dst, string(t.Kind))
	}
	if t.PayloadRef != "" {
		flags |= tailPayloadRef
		dst = appendField(dst, t.PayloadRef)
	}
	if r := t.Resources; !r.IsZero() || t.Rerouted != 0 || t.Attempts != 0 {
		flags |= tailInts
		for _, v := range [...]int{r.NumNodes, r.RanksPerNode, r.NumRanks, t.Rerouted, t.Attempts} {
			dst = binary.AppendVarint(dst, int64(v))
		}
	}
	if t.Trace.Valid() {
		flags |= tailTrace
		dst = append(append(dst, t.Trace.TraceID[:]...), t.Trace.SpanID[:]...)
	}
	return dst, flags
}

// appendResultTail appends a result's fields after a task tail.
func appendResultTail(dst []byte, ref, msg string, out []byte) ([]byte, uint8) {
	var flags uint8
	if ref != "" {
		flags |= tailResultRef
		dst = appendField(dst, ref)
	}
	if msg != "" {
		flags |= tailError
		dst = appendField(dst, msg)
	}
	if len(out) > 0 {
		flags |= tailResult
		dst = append(dst, out...)
	}
	return dst, flags
}

// setTail stores scratch as r's tail, copied to its exact size.
func (r *taskRow) setTail(scratch []byte) {
	r.tail = nil
	if len(scratch) > 0 {
		r.tail = bytes.Clone(scratch)
	}
}

// tailFields are a row tail's fields, sliced from it without copying.
type tailFields struct {
	kind, payloadRef, resultRef, msg, result []byte
	ints                                     [5]int64
	trace                                    trace.Context
}

func (r *taskRow) fields() (f tailFields) {
	b := r.tail
	next := func() []byte {
		n, k := binary.Uvarint(b)
		field := b[k : k+int(n) : k+int(n)]
		b = b[k+int(n):]
		return field
	}
	if r.flags&tailKind != 0 {
		f.kind = next()
	}
	if r.flags&tailPayloadRef != 0 {
		f.payloadRef = next()
	}
	if r.flags&tailInts != 0 {
		for i := range f.ints {
			v, k := binary.Varint(b)
			f.ints[i], b = v, b[k:]
		}
	}
	if r.flags&tailTrace != 0 {
		copy(f.trace.TraceID[:], b)
		copy(f.trace.SpanID[:], b[len(f.trace.TraceID):])
		b = b[traceSize:]
	}
	if r.flags&tailResultRef != 0 {
		f.resultRef = next()
	}
	if r.flags&tailError != 0 {
		f.msg = next()
	}
	if r.flags&tailResult != 0 {
		f.result = b[:len(b):len(b)]
	}
	return f
}

// nanos is t as a row stores it. Times outside the years 1678–2262, and the
// Unix epoch itself, do not round-trip.
func nanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func timeOf(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// internTable maps the strings a shard's rows repeat to uint32 handles and
// counts the rows naming each, so a purge frees every string no row uses.
// Handle 0 is the empty string and is not counted.
type internTable struct {
	handles map[string]uint32
	entries []internEntry // by handle
	free    []uint32      // released handles, reused first
}

type internEntry struct {
	s    string
	refs uint32
}

// ref returns s's handle, counting one more row that names it.
func (t *internTable) ref(s string) uint32 {
	if s == "" {
		return 0
	}
	if h, ok := t.handles[s]; ok {
		t.entries[h].refs++
		return h
	}
	e := internEntry{s: strings.Clone(s), refs: 1}
	var h uint32
	if n := len(t.free); n > 0 {
		h, t.free = t.free[n-1], t.free[:n-1]
		t.entries[h] = e
	} else {
		h = uint32(len(t.entries))
		t.entries = append(t.entries, e)
	}
	t.handles[e.s] = h
	return h
}

// unref drops one row's use of h.
func (t *internTable) unref(h uint32) {
	if h == 0 {
		return
	}
	e := &t.entries[h]
	if e.refs--; e.refs == 0 {
		delete(t.handles, e.s)
		*e = internEntry{}
		t.free = append(t.free, h)
	}
}

func (t *internTable) str(h uint32) string { return t.entries[h].s }

// lookup returns s's handle without counting a use.
func (t *internTable) lookup(s string) (uint32, bool) {
	if s == "" {
		return 0, true
	}
	h, ok := t.handles[s]
	return h, ok
}

// rowChunk is the row slab's allocation unit: 256 rows, 20 KiB.
const rowChunk = 256

// taskShard is one slice of the task table. counts tallies the shard's
// tasks per state incrementally, so state counts never require a table
// scan — pollers (benchmark drains, gc-top) read them at fixed cost no
// matter how many tasks the table holds.
type taskShard struct {
	mu     sync.RWMutex
	slots  map[taskKey]uint32 // task → row slot
	chunks []*[rowChunk]taskRow
	used   uint32   // slots handed out so far
	free   []uint32 // purged slots, reused first
	strs   internTable
	counts [numStates]int
	// inflight indexes the shard's non-terminal tasks by endpoint handle,
	// each with its creation sequence number. Terminal tasks leave it.
	inflight map[uint32]map[taskKey]uint64
}

// reset empties the shard; its lock is the caller's.
func (sh *taskShard) reset() {
	sh.slots = make(map[taskKey]uint32)
	sh.chunks, sh.used, sh.free = nil, 0, nil
	sh.strs = internTable{handles: make(map[string]uint32), entries: make([]internEntry, 1)}
	sh.counts = [numStates]int{}
	sh.inflight = make(map[uint32]map[taskKey]uint64)
}

func (sh *taskShard) row(slot uint32) *taskRow {
	return &sh.chunks[slot/rowChunk][slot%rowChunk]
}

// put adds rec as k's row (the caller has checked k is absent), indexing it
// in flight under seq unless it is terminal. scratch is the caller's tail
// buffer, returned for reuse.
func (sh *taskShard) put(k taskKey, rec *TaskRecord, seq uint64, scratch []byte) []byte {
	var slot uint32
	if n := len(sh.free); n > 0 {
		slot, sh.free = sh.free[n-1], sh.free[:n-1]
	} else {
		slot = sh.used
		sh.used++
		if int(slot/rowChunk) == len(sh.chunks) {
			sh.chunks = append(sh.chunks, new([rowChunk]taskRow))
		}
	}
	t := &rec.Task
	kind, _ := kindCode(t.Kind)
	r := sh.row(slot)
	*r = taskRow{
		state: stateCode(rec.State), kind: kind,
		fn: sh.strs.ref(string(t.FunctionID)), ep: sh.strs.ref(string(t.EndpointID)),
		group: sh.strs.ref(string(t.GroupID)), routing: sh.strs.ref(string(t.RoutingGroup)),
		user:      sh.strs.ref(t.UserIdentity),
		submitted: nanos(t.Submitted), created: nanos(rec.Created),
		updated: nanos(rec.Updated), completed: nanos(rec.Completed),
	}
	var taskFlags, resFlags uint8
	scratch, taskFlags = appendTaskTail(scratch[:0], t)
	scratch, resFlags = appendResultTail(scratch, rec.ResultRef, rec.Error, rec.Result)
	r.flags = taskFlags | resFlags
	r.setTail(scratch)
	sh.slots[k] = slot
	sh.counts[r.state]++
	if !rec.State.Terminal() {
		sh.track(r.ep, k, seq)
	}
	return scratch
}

// drop removes k's row.
func (sh *taskShard) drop(k taskKey, slot uint32) {
	r := sh.row(slot)
	if !stateNames[r.state].Terminal() {
		sh.untrack(r.ep, k)
	}
	for _, h := range [...]uint32{r.fn, r.ep, r.group, r.routing, r.user} {
		sh.strs.unref(h)
	}
	sh.counts[r.state]--
	*r = taskRow{}
	delete(sh.slots, k)
	sh.free = append(sh.free, slot)
}

func (sh *taskShard) track(ep uint32, k taskKey, seq uint64) {
	m := sh.inflight[ep]
	if m == nil {
		m = make(map[taskKey]uint64)
		sh.inflight[ep] = m
	}
	m[k] = seq
}

func (sh *taskShard) untrack(ep uint32, k taskKey) {
	m := sh.inflight[ep]
	delete(m, k)
	if len(m) == 0 {
		delete(sh.inflight, ep)
	}
}

// record builds the read view of r, whose task ID is id.
func (sh *taskShard) record(id protocol.UUID, r *taskRow) TaskRecord {
	f := r.fields()
	rec := TaskRecord{
		Task: protocol.Task{
			ID: id, FunctionID: protocol.UUID(sh.strs.str(r.fn)), EndpointID: protocol.UUID(sh.strs.str(r.ep)),
			Kind: kindNames[r.kind], PayloadRef: string(f.payloadRef),
			Resources:    protocol.ResourceSpec{NumNodes: int(f.ints[0]), RanksPerNode: int(f.ints[1]), NumRanks: int(f.ints[2])},
			UserIdentity: sh.strs.str(r.user), GroupID: protocol.UUID(sh.strs.str(r.group)),
			RoutingGroup: protocol.UUID(sh.strs.str(r.routing)), Rerouted: int(f.ints[3]),
			Submitted: timeOf(r.submitted), Attempts: int(f.ints[4]),
		},
		State: stateNames[r.state], Result: f.result, ResultRef: string(f.resultRef), Error: string(f.msg),
		Created: timeOf(r.created), Updated: timeOf(r.updated), Completed: timeOf(r.completed),
	}
	if r.flags&tailKind != 0 {
		rec.Task.Kind = protocol.FunctionKind(f.kind)
	}
	rec.Task.Trace = f.trace
	return rec
}
