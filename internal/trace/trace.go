// Package trace is a stdlib-only distributed tracing subsystem for the
// task lifecycle: spans with trace/span IDs and parent links, a bounded
// concurrent-safe Collector, a JSONL exporter, and a per-trace critical-path
// analyzer. It underpins the paper's per-stage latency decomposition
// (submit -> broker -> endpoint -> engine -> worker -> result) with real
// per-task measurements instead of hand-placed timers.
//
// Trace context crosses process boundaries as a Context value carried on
// protocol.Task, protocol.Result and every broker delivery; each component
// continues the trace by starting child spans off the carried context. A
// Context is 24 bytes of binary IDs (the W3C Trace Context sizes), turned
// into hex only at text boundaries: JSON, logs and /debug/traces.
//
// Spans cost no heap objects: StartSpan hands out an ActiveSpan value,
// attributes live in a small fixed array, and the Collector's ring stores
// fixed-size slots, building the Span view only when read. A nil *Tracer
// hands out the zero ActiveSpan, a no-op.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end task lifecycle: 16 bytes. The zero ID
// means "no trace". Its text form is 32 lowercase hex digits.
type TraceID [16]byte

// SpanID identifies one stage within a trace: 8 bytes, zero for none. Its
// text form is 16 lowercase hex digits.
type SpanID [8]byte

// IsZero reports whether id is the absent ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether id is the absent ID.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String is the hex form; the zero ID is "".
func (id TraceID) String() string { return hexString(id[:]) }

// String is the hex form; the zero ID is "".
func (id SpanID) String() string { return hexString(id[:]) }

// MarshalText writes the hex form (empty for the zero ID).
func (id TraceID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// MarshalText writes the hex form (empty for the zero ID).
func (id SpanID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText reads the hex form; empty text is the zero ID. Text that is
// not 32 hex digits is an error and leaves the zero ID.
func (id *TraceID) UnmarshalText(b []byte) error { return parseID(id[:], b) }

// UnmarshalText reads the hex form; empty text is the zero ID. Text that is
// not 16 hex digits is an error and leaves the zero ID.
func (id *SpanID) UnmarshalText(b []byte) error { return parseID(id[:], b) }

func hexString(b []byte) string {
	for _, c := range b {
		if c != 0 {
			return hex.EncodeToString(b)
		}
	}
	return ""
}

func parseID(dst, text []byte) error {
	clear(dst)
	if len(text) == 0 {
		return nil
	}
	if len(text) != 2*len(dst) {
		return fmt.Errorf("trace: malformed %d-byte ID %q", len(dst), text)
	}
	if _, err := hex.Decode(dst, text); err != nil {
		clear(dst)
		return fmt.Errorf("trace: malformed %d-byte ID %q", len(dst), text)
	}
	return nil
}

// Context is the propagated trace context: which trace an operation belongs
// to and which span is its parent. A zero TraceID means no context; so does
// an ID of the wrong size, which is dropped rather than refused, as W3C
// Trace Context drops a malformed traceparent.
type Context struct {
	TraceID TraceID `json:"trace_id"`
	SpanID  SpanID  `json:"span_id,omitzero"`
}

// Valid reports whether c carries a usable trace ID.
func (c Context) Valid() bool { return !c.TraceID.IsZero() }

// IsZero reports whether c carries no trace, so a field tagged omitzero
// leaves it out.
func (c Context) IsZero() bool { return !c.Valid() }

// ParseContext builds a context from the hex text of its IDs (sid may be
// empty). IDs that are not 32 and 16 hex digits, or a zero trace ID, give
// no context.
func ParseContext(tid, sid string) Context {
	var c Context
	if c.TraceID.UnmarshalText([]byte(tid)) != nil || c.SpanID.UnmarshalText([]byte(sid)) != nil || !c.Valid() {
		return Context{}
	}
	return c
}

// UnmarshalJSON reads {"trace_id":..,"span_id":..}. Malformed IDs give no
// context instead of an error, so a bad client context costs the client its
// trace, not its request.
func (c *Context) UnmarshalJSON(b []byte) error {
	var text struct {
		TraceID string `json:"trace_id"`
		SpanID  string `json:"span_id"`
	}
	if err := json.Unmarshal(b, &text); err != nil {
		return err
	}
	*c = ParseContext(text.TraceID, text.SpanID)
	return nil
}

// idSource is a cheap concurrent ID generator: a crypto-seeded counter
// split into trace and span halves. IDs need uniqueness, not secrecy.
var idSource atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		idSource.Store(binary.BigEndian.Uint64(b[:]))
	} else {
		idSource.Store(uint64(time.Now().UnixNano()))
	}
}

// NewTraceID returns a fresh, nonzero trace identifier.
func NewTraceID() (id TraceID) {
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], idSource.Add(1))
		binary.BigEndian.PutUint64(id[8:], idSource.Add(1)*0x9e3779b97f4a7c15)
	}
	return id
}

// NewSpanID returns a fresh, nonzero span identifier.
func NewSpanID() (id SpanID) {
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], idSource.Add(1)*0xbf58476d1ce4e5b9)
	}
	return id
}

// Span is one recorded stage of a trace: pure data, safe to copy, store,
// and marshal. It is the read view of a collector slot.
type Span struct {
	TraceID TraceID           `json:"trace_id"`
	SpanID  SpanID            `json:"span_id"`
	Parent  SpanID            `json:"parent_span_id,omitzero"`
	Name    string            `json:"name"`
	Process string            `json:"process,omitempty"`
	Start   time.Time         `json:"start"`
	EndTime time.Time         `json:"end"`
	Status  string            `json:"status,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's wall time (zero until ended).
func (s Span) Duration() time.Duration {
	if s.EndTime.IsZero() {
		return 0
	}
	return s.EndTime.Sub(s.Start)
}

// maxAttrs bounds a span's attributes; further keys are dropped.
const maxAttrs = 4

// attr is one span attribute. A value that is a canonical UUID is held in
// id, packed (the record's ids bit says which), so a slot never points into
// the decoded message body a task or endpoint ID was sliced from.
type attr struct {
	key, val string
	id       [16]byte
}

// record is one span as a collector slot holds it: fixed size, times as
// Unix nanoseconds.
type record struct {
	traceID               TraceID
	spanID, parent        SpanID
	name, process, status string
	start, end            int64
	nattr, ids            uint8
	attrs                 [maxAttrs]attr
}

func (r *record) setAttr(k, v string) {
	i := 0
	for i < int(r.nattr) && r.attrs[i].key != k {
		i++
	}
	if i == maxAttrs {
		return
	}
	if i == int(r.nattr) {
		r.nattr++
	}
	a := &r.attrs[i]
	a.key = k
	if id, ok := packUUID(v); ok {
		a.val, a.id = "", id
		r.ids |= 1 << i
	} else {
		a.val = v
		r.ids &^= 1 << i
	}
}

// view builds the Span the record holds.
func (r *record) view() Span {
	s := Span{TraceID: r.traceID, SpanID: r.spanID, Parent: r.parent, Name: r.name,
		Process: r.process, Status: r.status, Start: time.Unix(0, r.start), EndTime: time.Unix(0, r.end)}
	if r.nattr > 0 {
		s.Attrs = make(map[string]string, r.nattr)
		for i := range r.attrs[:r.nattr] {
			a := &r.attrs[i]
			if r.ids&(1<<i) != 0 {
				s.Attrs[a.key] = unpackUUID(a.id)
			} else {
				s.Attrs[a.key] = a.val
			}
		}
	}
	return s
}

// uuidHexAt lists the offsets of a canonical UUID's 32 hex digits.
var uuidHexAt = [32]uint8{0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 14, 15, 16, 17,
	19, 20, 21, 22, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35}

// packUUID packs s when it is a canonical UUID: 8-4-4-4-12 lowercase hex
// digits, the only form unpackUUID gives back unchanged.
func packUUID(s string) (raw [16]byte, ok bool) {
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return raw, false
	}
	for i := range raw {
		hi, lo := hexValue[s[uuidHexAt[2*i]]], hexValue[s[uuidHexAt[2*i+1]]]
		if hi|lo > 15 {
			return raw, false
		}
		raw[i] = hi<<4 | lo
	}
	return raw, true
}

// hexValue maps a lowercase hex digit to its value and every other byte to
// 0xFF.
var hexValue = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xFF
	}
	for i, c := range "0123456789abcdef" {
		t[c] = byte(i)
	}
	return t
}()

func unpackUUID(raw [16]byte) string {
	var b [36]byte
	hex.Encode(b[0:8], raw[0:4])
	hex.Encode(b[9:13], raw[4:6])
	hex.Encode(b[14:18], raw[6:8])
	hex.Encode(b[19:23], raw[8:10])
	hex.Encode(b[24:36], raw[10:16])
	b[8], b[13], b[18], b[23] = '-', '-', '-', '-'
	return string(b[:])
}

// ActiveSpan is a live span, a value: StartSpan hands one out and End
// records it. The zero ActiveSpan, which a nil tracer hands out, is a no-op
// whose Context is the zero Context, and so is a nil *ActiveSpan. A span is
// one goroutine's at a time; the first End records it, and later Ends and
// SetAttrs do nothing.
type ActiveSpan struct {
	tracer *Tracer // nil once ended, and for the no-op span
	rec    record
}

// Context returns the span's propagation context, for handing to the next
// stage. The no-op span's is the zero Context ("no tracing").
func (s *ActiveSpan) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{TraceID: s.rec.traceID, SpanID: s.rec.spanID}
}

// SetAttr attaches a key/value attribute (at most four keys per span).
// A no-op on the no-op span and on an ended one.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s != nil && s.tracer != nil {
		s.rec.setAttr(k, v)
	}
}

// EndStatus finishes the span with an explicit status ("" = ok) and records
// it in the collector. Only the first End wins.
func (s *ActiveSpan) EndStatus(status string) {
	if s == nil || s.tracer == nil {
		return
	}
	t := s.tracer
	s.tracer = nil
	s.rec.end = time.Now().UnixNano()
	s.rec.status = status
	if t.collector != nil {
		t.collector.add(&s.rec)
	}
}

// End finishes the span successfully.
func (s *ActiveSpan) End() { s.EndStatus("") }

// EndAll ends the spans still open with one status and one end time,
// recording a run of spans bound for one collector under one lock: the form
// for a batch of stages that finish together.
func EndAll(spans []ActiveSpan, status string) {
	end := time.Now().UnixNano()
	var col *Collector
	for i := range spans {
		s := &spans[i]
		t := s.tracer
		if t == nil {
			continue
		}
		s.tracer = nil
		s.rec.end, s.rec.status = end, status
		if t.collector != col {
			if col != nil {
				col.mu.Unlock()
			}
			if col = t.collector; col != nil {
				col.mu.Lock()
			}
		}
		if col != nil {
			col.addLocked(&s.rec)
		}
	}
	if col != nil {
		col.mu.Unlock()
	}
}

// Tracer creates spans for one component (process). The zero of *Tracer
// (nil) is a valid no-op tracer.
type Tracer struct {
	process   string
	collector *Collector
}

// NewTracer builds a tracer that records ended spans into c under the given
// process name (e.g. "webservice", "broker", "endpoint", "engine", "sdk").
func NewTracer(process string, c *Collector) *Tracer {
	return &Tracer{process: process, collector: c}
}

// Collector returns the tracer's span sink (nil for a nil tracer).
func (t *Tracer) Collector() *Collector {
	if t == nil {
		return nil
	}
	return t.collector
}

// StartSpan begins a span now. An invalid parent starts a new trace (the
// span becomes a root); otherwise the span joins the parent's trace with a
// parent link. A nil tracer returns the no-op span.
func (t *Tracer) StartSpan(parent Context, name string) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	return t.StartSpanAt(parent, name, time.Now())
}

// StartSpanAt is StartSpan with an explicit start time, for stages whose
// beginning predates the instrumentation point (e.g. service time measured
// from request arrival).
func (t *Tracer) StartSpanAt(parent Context, name string, start time.Time) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	s := ActiveSpan{tracer: t}
	t.begin(&s.rec, parent, name, start)
	return s
}

// begin fills a fresh record's identity and start.
func (t *Tracer) begin(r *record, parent Context, name string, start time.Time) {
	r.name, r.process, r.start, r.spanID = name, t.process, start.UnixNano(), NewSpanID()
	if parent.Valid() {
		r.traceID, r.parent = parent.TraceID, parent.SpanID
	} else {
		r.traceID = NewTraceID()
	}
}

// Record registers an already-completed stage (start..end) and returns its
// context, for components that learn about a stage after the fact (e.g. the
// interchange recording a remote worker's execution from the result's
// timestamps). Trailing arguments are attribute key/value pairs. A nil
// tracer, or one without a collector, returns the parent unchanged.
func (t *Tracer) Record(parent Context, name string, start, end time.Time, attrs ...string) Context {
	if t == nil || t.collector == nil {
		return parent
	}
	var r record
	t.begin(&r, parent, name, start)
	r.end = end.UnixNano()
	for i := 0; i+1 < len(attrs); i += 2 {
		r.setAttr(attrs[i], attrs[i+1])
	}
	t.collector.add(&r)
	return Context{TraceID: r.traceID, SpanID: r.spanID}
}

// ctxKey keys the span context inside a context.Context.
type ctxKey struct{}

// NewContext returns ctx carrying the given trace context (an invalid one
// is not attached).
func NewContext(ctx context.Context, tc Context) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tc)
}

// FromContext extracts the trace context from ctx (the zero Context if
// absent).
func FromContext(ctx context.Context) Context {
	if ctx == nil {
		return Context{}
	}
	tc, _ := ctx.Value(ctxKey{}).(Context)
	return tc
}

// Start begins a span as a child of the context carried in ctx (a new root
// when ctx carries none) and returns a derived context carrying the new
// span. This is the in-process idiom: trace.Start-style stage scoping.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, ActiveSpan) {
	s := t.StartSpan(FromContext(ctx), name)
	return NewContext(ctx, s.Context()), s
}
