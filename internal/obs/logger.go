// Package obs is the fleet-observability layer: structured trace-correlated
// logging over log/slog, a fixed-memory per-endpoint metrics time-series
// store fed by heartbeat snapshots, an SLO engine with multi-window
// burn-rate alerting, and a small Prometheus exposition parser used by the
// smoke tooling. Everything is stdlib-only and safe for concurrent use.
//
// Logging model: one process-wide pipeline fans every component logger out
// to stderr (text, human-oriented) and a bounded in-memory ring buffer (the
// queryable backend behind GET /debug/logs). Component loggers carry a
// `component` field and helpers attach the standard correlation fields —
// endpoint_id, task_id, trace_id — so any log line joins to the trace of the
// task that produced it.
package obs

import (
	"io"
	"log/slog"
	"os"
	"sync"

	"globuscompute/internal/trace"
)

// Standard correlation attribute keys. Every component uses these exact keys
// so /debug/logs queries and trace joins work fleet-wide.
const (
	KeyComponent = "component"
	KeyEndpoint  = "endpoint_id"
	KeyTask      = "task_id"
	KeyTrace     = "trace_id"
)

// Logger is a thin wrapper over *slog.Logger adding the correlation-field
// helpers. The zero value and nil are both safe: they log through the
// process-default pipeline, so components can accept an optional *Logger
// without nil checks at call sites.
type Logger struct {
	s *slog.Logger
}

// Pipeline is a logging destination set: an optional human-readable writer
// and an optional ring buffer, both taking records at info level and above.
type Pipeline struct {
	handler slog.Handler
	buffer  *LogBuffer
}

// PipelineConfig assembles a pipeline.
type PipelineConfig struct {
	// Writer receives human-readable text lines (nil = discard). The default
	// pipeline uses os.Stderr.
	Writer io.Writer
	// Buffer is the queryable ring sink (nil = none).
	Buffer *LogBuffer
}

// NewPipeline builds a pipeline fanning out to the configured sinks.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	var hs []slog.Handler
	if cfg.Writer != nil {
		hs = append(hs, slog.NewTextHandler(cfg.Writer, nil))
	}
	if cfg.Buffer != nil {
		hs = append(hs, &bufferHandler{buf: cfg.Buffer})
	}
	p := &Pipeline{buffer: cfg.Buffer}
	switch len(hs) {
	case 0:
		p.handler = discardHandler{}
	case 1:
		p.handler = hs[0]
	default:
		p.handler = multiHandler(hs)
	}
	return p
}

// Component returns a logger stamped with the component field.
func (p *Pipeline) Component(name string) *Logger {
	return &Logger{s: slog.New(p.handler).With(KeyComponent, name)}
}

// Buffer returns the pipeline's ring sink (nil when unconfigured).
func (p *Pipeline) Buffer() *LogBuffer { return p.buffer }

// DefaultLogCapacity sizes the default pipeline's ring buffer.
const DefaultLogCapacity = 4096

var (
	defaultMu       sync.RWMutex
	defaultPipeline = NewPipeline(PipelineConfig{
		Writer: os.Stderr,
		Buffer: NewLogBuffer(DefaultLogCapacity),
	})
)

// Default returns the process-wide pipeline. Components resolve their
// loggers through it when not explicitly configured, so a single-process
// deployment (testbed, gc-webservice) aggregates every component's records
// in one queryable buffer — the way a logging backend would in production.
func Default() *Pipeline {
	defaultMu.RLock()
	defer defaultMu.RUnlock()
	return defaultPipeline
}

// SetDefault replaces the process-wide pipeline (tests use this to silence
// or capture output).
func SetDefault(p *Pipeline) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	defaultPipeline = p
}

// DefaultBuffer returns the default pipeline's ring sink.
func DefaultBuffer() *LogBuffer { return Default().Buffer() }

// Component returns a logger for the named component on the default
// pipeline.
func Component(name string) *Logger { return Default().Component(name) }

// logger resolves the receiver, falling back to a bare default-pipeline
// logger so a nil *Logger is always usable.
func (l *Logger) logger() *slog.Logger {
	if l == nil || l.s == nil {
		return slog.New(Default().handler)
	}
	return l.s
}

// With returns a logger with extra key/value attributes attached.
func (l *Logger) With(args ...any) *Logger {
	return &Logger{s: l.logger().With(args...)}
}

// WithEndpoint attaches the endpoint correlation field.
func (l *Logger) WithEndpoint(id string) *Logger {
	return l.With(KeyEndpoint, id)
}

// WithTask attaches the task correlation field.
func (l *Logger) WithTask(id string) *Logger {
	return l.With(KeyTask, id)
}

// WithTrace attaches the trace correlation field from a propagated context;
// an invalid context attaches nothing, so callers need no guards.
func (l *Logger) WithTrace(tc trace.Context) *Logger {
	if !tc.Valid() {
		return l
	}
	return l.With(KeyTrace, tc.TraceID.String())
}

// Debug logs at debug level.
func (l *Logger) Debug(msg string, args ...any) { l.logger().Debug(msg, args...) }

// Info logs at info level.
func (l *Logger) Info(msg string, args ...any) { l.logger().Info(msg, args...) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, args ...any) { l.logger().Warn(msg, args...) }

// Error logs at error level.
func (l *Logger) Error(msg string, args ...any) { l.logger().Error(msg, args...) }
