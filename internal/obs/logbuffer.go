package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// LogRecord is one captured structured log line: flattened attributes plus
// the extracted correlation fields, ready to serve as JSON from /debug/logs.
type LogRecord struct {
	Time      time.Time         `json:"time"`
	Level     string            `json:"level"`
	Component string            `json:"component,omitempty"`
	Message   string            `json:"msg"`
	TraceID   string            `json:"trace_id,omitempty"`
	TaskID    string            `json:"task_id,omitempty"`
	Endpoint  string            `json:"endpoint_id,omitempty"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// LogBuffer is a bounded concurrent-safe ring of LogRecords — the queryable
// in-memory logging backend. Memory is fixed: capacity records, oldest
// overwritten first.
type LogBuffer struct {
	mu    sync.Mutex
	ring  []LogRecord
	next  int
	n     int
	total int64
}

// NewLogBuffer returns a buffer retaining up to capacity records
// (<=0 selects DefaultLogCapacity).
func NewLogBuffer(capacity int) *LogBuffer {
	if capacity <= 0 {
		capacity = DefaultLogCapacity
	}
	return &LogBuffer{ring: make([]LogRecord, capacity)}
}

// Append stores one record.
func (b *LogBuffer) Append(rec LogRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ring[b.next] = rec
	b.next = (b.next + 1) % len(b.ring)
	if b.n < len(b.ring) {
		b.n++
	}
	b.total++
}

// Len reports retained records; Total reports all records ever appended.
func (b *LogBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Total reports records appended over the buffer's lifetime (retained or
// overwritten).
func (b *LogBuffer) Total() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// snapshot copies the retained records oldest-first (caller-free of locks).
func (b *LogBuffer) snapshot() []LogRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]LogRecord, 0, b.n)
	start := b.next - b.n
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < b.n; i++ {
		out = append(out, b.ring[(start+i)%len(b.ring)])
	}
	return out
}

// Query filters retained records; zero-valued fields match everything.
type Query struct {
	TraceID   string
	TaskID    string
	Endpoint  string
	Component string
	MinLevel  slog.Level
	// Limit caps the result from the newest end (0 = no cap).
	Limit int
}

// Search returns retained records matching q, oldest-first.
func (b *LogBuffer) Search(q Query) []LogRecord {
	var out []LogRecord
	for _, r := range b.snapshot() {
		if q.TraceID != "" && r.TraceID != q.TraceID {
			continue
		}
		if q.TaskID != "" && r.TaskID != q.TaskID {
			continue
		}
		if q.Endpoint != "" && r.Endpoint != q.Endpoint {
			continue
		}
		if q.Component != "" && r.Component != q.Component {
			continue
		}
		if parseLevel(r.Level) < q.MinLevel {
			continue
		}
		out = append(out, r)
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

func parseLevel(s string) slog.Level {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return slog.LevelInfo
	}
	return l
}

// bufferHandler captures slog records at info level and above (including
// attributes accumulated via WithAttrs) into the ring.
type bufferHandler struct {
	buf   *LogBuffer
	attrs []slog.Attr
	group string
}

func (h *bufferHandler) Enabled(_ context.Context, l slog.Level) bool {
	return l >= slog.LevelInfo
}

func (h *bufferHandler) Handle(_ context.Context, r slog.Record) error {
	rec := LogRecord{Time: r.Time, Level: r.Level.String(), Message: r.Message}
	set := func(a slog.Attr) {
		key := a.Key
		if h.group != "" {
			key = h.group + "." + key
		}
		val := a.Value.Resolve().String()
		switch key {
		case KeyComponent:
			rec.Component = val
		case KeyTrace:
			rec.TraceID = val
		case KeyTask:
			rec.TaskID = val
		case KeyEndpoint:
			rec.Endpoint = val
		default:
			if rec.Attrs == nil {
				rec.Attrs = make(map[string]string, 4)
			}
			rec.Attrs[key] = val
		}
	}
	for _, a := range h.attrs {
		set(a)
	}
	r.Attrs(func(a slog.Attr) bool {
		set(a)
		return true
	})
	h.buf.Append(rec)
	return nil
}

func (h *bufferHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	nh.attrs = append(append([]slog.Attr(nil), h.attrs...), attrs...)
	return &nh
}

func (h *bufferHandler) WithGroup(name string) slog.Handler {
	nh := *h
	if name != "" {
		if nh.group != "" {
			nh.group += "." + name
		} else {
			nh.group = name
		}
	}
	return &nh
}

// multiHandler fans one record out to several handlers.
type multiHandler []slog.Handler

func (m multiHandler) Enabled(ctx context.Context, l slog.Level) bool {
	for _, h := range m {
		if h.Enabled(ctx, l) {
			return true
		}
	}
	return false
}

func (m multiHandler) Handle(ctx context.Context, r slog.Record) error {
	var first error
	for _, h := range m {
		if !h.Enabled(ctx, r.Level) {
			continue
		}
		if err := h.Handle(ctx, r.Clone()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m multiHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	out := make(multiHandler, len(m))
	for i, h := range m {
		out[i] = h.WithAttrs(attrs)
	}
	return out
}

func (m multiHandler) WithGroup(name string) slog.Handler {
	out := make(multiHandler, len(m))
	for i, h := range m {
		out[i] = h.WithGroup(name)
	}
	return out
}

// discardHandler drops everything (a pipeline with no sinks).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
