package webservice

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"globuscompute/internal/metrics"
	"globuscompute/internal/obs"
	"globuscompute/internal/trace"
)

// Observability endpoints: GET /debug/traces renders collected task
// lifecycle traces (list, per-trace stage breakdown, or JSONL export) and
// GET /metrics exposes the service and broker registries in the Prometheus
// text format. Both use the dashboard's ?token= authentication since they
// serve browsers and scrapers that cannot attach bearer headers.

// TraceCollector returns the span collector behind the service's tracer
// (nil when tracing is disabled).
func (s *Service) TraceCollector() *trace.Collector {
	return s.cfg.Tracer.Collector()
}

func (s *Server) debugAuth(w http.ResponseWriter, r *http.Request) bool {
	token := r.URL.Query().Get("token")
	if _, err := s.svc.cfg.Auth.Introspect(token); err != nil {
		http.Error(w, "unauthorized: pass ?token=<bearer token>", http.StatusUnauthorized)
		return false
	}
	return true
}

// handleDebugTraces serves the trace explorer:
//
//	/debug/traces            — recent traces, one line each
//	/debug/traces?id=<tid>   — stage breakdown and critical path of one trace
//	/debug/traces?format=jsonl — raw span export (all retained spans)
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if !s.debugAuth(w, r) {
		return
	}
	col := s.svc.TraceCollector()
	if col == nil {
		http.Error(w, "tracing disabled (no tracer configured)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")

	if r.URL.Query().Get("format") == "jsonl" {
		_ = col.WriteJSONL(w)
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		var tid trace.TraceID
		_ = tid.UnmarshalText([]byte(id)) // a malformed ID names no trace: 404 below
		spans := col.Trace(tid)
		sum, err := trace.Analyze(spans)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		fmt.Fprint(w, sum.String())
		return
	}
	writeTraceList(w, col)
}

// writeTraceList writes the listing: one line per retained trace, most
// recent first, capped for readability. It reads the ring once, grouping
// one Snapshot by trace ID, so a listing holds span writers up for one copy
// of the ring rather than for a scan per trace.
func writeTraceList(w io.Writer, col *trace.Collector) {
	spans := col.Snapshot()
	var ids []trace.TraceID // first-seen order, as TraceIDs lists them
	byTrace := make(map[trace.TraceID][]trace.Span)
	for _, sp := range spans {
		if _, ok := byTrace[sp.TraceID]; !ok {
			ids = append(ids, sp.TraceID)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	fmt.Fprintf(w, "%d traces retained (%d spans, %d total, %d dropped)\n\n",
		len(ids), len(spans), col.Total(), col.Dropped())
	const maxList = 200
	shown := 0
	for i := len(ids) - 1; i >= 0 && shown < maxList; i-- {
		spans := byTrace[ids[i]]
		sum, err := trace.Analyze(spans)
		if err != nil {
			continue
		}
		names := make([]string, 0, len(spans))
		for _, sp := range spans {
			names = append(names, sp.Name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "%s  %8s  %2d spans  [%s]\n",
			sum.TraceID, sum.Duration.Round(1000), len(spans), joinMax(names, 8))
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(w, "no complete traces yet")
	}
}

// writeTraceRing exports the span ring's reach: spans recorded, spans the
// ring overwrote, and the history it holds (now minus the oldest retained
// span's start; 0 while empty).
func writeTraceRing(w io.Writer, col *trace.Collector, now time.Time) {
	window := 0.0
	if oldest := col.OldestStart(); !oldest.IsZero() {
		window = now.Sub(oldest).Seconds()
	}
	fmt.Fprintf(w, "# TYPE gc_trace_spans_total counter\ngc_trace_spans_total %d\n", col.Total())
	fmt.Fprintf(w, "# TYPE gc_trace_spans_dropped_total counter\ngc_trace_spans_dropped_total %d\n", col.Dropped())
	fmt.Fprintf(w, "# TYPE gc_trace_ring_window_seconds gauge\ngc_trace_ring_window_seconds %g\n", window)
}

func joinMax(names []string, max int) string {
	if len(names) > max {
		names = append(names[:max:max], "...")
	}
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += n
	}
	return out
}

// handleMetrics writes the service and broker registries in the Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.debugAuth(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.svc.Metrics.WriteText(w, "gc_webservice"); err != nil {
		return
	}
	// Overload-protection series export under the bare gc prefix so the
	// names the runbooks quote (gc_admission_*_total, gc_shed_total) hold
	// regardless of which component enforces them.
	if err := s.svc.Overload.WriteText(w, "gc"); err != nil {
		return
	}
	// Placement series (gc_route_picks_total, gc_route_reroutes_total,
	// gc_route_pick_staleness_seconds) share the bare gc prefix.
	if err := s.svc.Routing.WriteText(w, "gc"); err != nil {
		return
	}
	if col := s.svc.TraceCollector(); col != nil {
		writeTraceRing(w, col, time.Now())
	}
	if s.svc.cfg.Broker != nil {
		_ = s.svc.cfg.Broker.Metrics.WriteText(w, "gc_broker")
	}
	if s.svc.cfg.DurableMetrics != nil {
		_ = s.svc.cfg.DurableMetrics.WriteText(w, "gc_durable")
	}
	if s.svc.cfg.Objects != nil && s.svc.cfg.Objects.Metrics != nil {
		_ = s.svc.cfg.Objects.Metrics.WriteText(w, "gc_objectstore")
	}
	_ = metrics.WriteRuntime(w)
}

// handleMetricsFleet writes the federated fleet view: every tracked
// endpoint's metrics in one scrape, labeled by endpoint_id, plus synthetic
// up/staleness series. This is the single Prometheus target for the whole
// deployment — agents never expose listeners of their own.
func (s *Server) handleMetricsFleet(w http.ResponseWriter, r *http.Request) {
	if !s.debugAuth(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.svc.Fleet.WriteFederation(w, time.Now())
}

// handleDebugFleet serves the JSON health rollup: per-endpoint liveness,
// utilization, backlog, failure rates, and the current SLO alert set. The
// handler ticks the store and evaluates rules on demand so a scrape is never
// staler than the background evaluator interval.
func (s *Server) handleDebugFleet(w http.ResponseWriter, r *http.Request) {
	if !s.debugAuth(w, r) {
		return
	}
	now := time.Now()
	s.svc.Fleet.Tick(now)
	s.svc.SLO.Evaluate(now)
	writeJSON(w, http.StatusOK, map[string]any{
		"fleet":  s.svc.Fleet.Health(now),
		"alerts": s.svc.SLO.Alerts(),
		"rules":  s.svc.SLO.Rules(),
	})
}

// handleDebugLogs queries the retained structured-log ring:
//
//	/debug/logs?trace_id=<tid>      — every record on one trace, any component
//	/debug/logs?task_id=<id>        — records for one task
//	/debug/logs?endpoint_id=<id>&level=warn&n=50
func (s *Server) handleDebugLogs(w http.ResponseWriter, r *http.Request) {
	if !s.debugAuth(w, r) {
		return
	}
	buf := s.svc.cfg.Logs
	if buf == nil {
		http.Error(w, "log capture disabled", http.StatusNotFound)
		return
	}
	q := obs.Query{
		TraceID:   r.URL.Query().Get("trace_id"),
		TaskID:    r.URL.Query().Get("task_id"),
		Endpoint:  r.URL.Query().Get("endpoint_id"),
		Component: r.URL.Query().Get("component"),
		MinLevel:  slog.LevelDebug, // serve everything unless ?level= narrows it
		Limit:     200,
	}
	if lv := r.URL.Query().Get("level"); lv != "" {
		var l slog.Level
		if err := l.UnmarshalText([]byte(lv)); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("webservice: bad level %q: %w", lv, err))
			return
		}
		q.MinLevel = l
	}
	if n := r.URL.Query().Get("n"); n != "" {
		fmt.Sscanf(n, "%d", &q.Limit)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":   buf.Total(),
		"records": buf.Search(q),
	})
}

var errTracingDisabled = errors.New("webservice: tracing disabled")

// AnalyzeTrace is the programmatic counterpart of /debug/traces?id=: it
// analyzes one retained trace by ID.
func (s *Service) AnalyzeTrace(id trace.TraceID) (trace.Summary, error) {
	col := s.TraceCollector()
	if col == nil {
		return trace.Summary{}, errTracingDisabled
	}
	return trace.Analyze(col.Trace(id))
}
