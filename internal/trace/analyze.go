package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stage is one analyzed span within a trace summary.
type Stage struct {
	Name     string        `json:"name"`
	Process  string        `json:"process,omitempty"`
	SpanID   SpanID        `json:"span_id"`
	Parent   SpanID        `json:"parent_span_id,omitzero"`
	Offset   time.Duration `json:"offset_ns"`   // start relative to trace start
	Duration time.Duration `json:"duration_ns"` // span wall time
	// Gap is dead time between this stage's start and its predecessor's end
	// on the critical path (only set on critical-path stages).
	Gap   time.Duration     `json:"gap_ns,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Summary is the per-trace analysis: the stage list, the critical path
// (root -> latest-finishing descendants), and how much of the end-to-end
// time the instrumented stages fail to account for.
type Summary struct {
	TraceID  TraceID       `json:"trace_id"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Spans    int           `json:"spans"`
	Stages   []Stage       `json:"stages"`
	// CriticalPath walks parent->child links from the root, at each step
	// following the child subtree that finishes last.
	CriticalPath []Stage `json:"critical_path"`
	// Unattributed is the critical-path dead time: end-to-end duration not
	// covered by any critical-path span (queue/transit gaps the
	// instrumentation does not yet name).
	Unattributed time.Duration `json:"unattributed_ns"`
}

// Analyze summarizes one trace's spans (in any order). It fails on empty
// input or on spans from mixed traces.
func Analyze(spans []Span) (Summary, error) {
	if len(spans) == 0 {
		return Summary{}, fmt.Errorf("trace: no spans to analyze")
	}
	id := spans[0].TraceID
	for _, s := range spans {
		if s.TraceID != id {
			return Summary{}, fmt.Errorf("trace: mixed traces %s and %s", id, s.TraceID)
		}
	}
	ordered := make([]Span, len(spans))
	copy(ordered, spans)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Start.Before(ordered[j].Start) })

	start := ordered[0].Start
	end := ordered[0].EndTime
	for _, s := range ordered {
		if s.EndTime.After(end) {
			end = s.EndTime
		}
	}
	sum := Summary{TraceID: id, Start: start, Duration: end.Sub(start), Spans: len(ordered)}
	for _, s := range ordered {
		sum.Stages = append(sum.Stages, Stage{
			Name: s.Name, Process: s.Process, SpanID: s.SpanID, Parent: s.Parent,
			Offset: s.Start.Sub(start), Duration: s.Duration(), Attrs: s.Attrs,
		})
	}
	sum.CriticalPath = criticalPath(ordered, start)
	covered := time.Duration(0)
	for _, st := range sum.CriticalPath {
		covered += st.Duration
	}
	if sum.Unattributed = sum.Duration - covered; sum.Unattributed < 0 {
		// Overlapping critical-path spans (parent time includes child time)
		// can over-cover; clamp rather than report negative dead time.
		sum.Unattributed = 0
	}
	return sum, nil
}

// criticalPath follows parent links from the root span, descending at each
// node into the child whose subtree finishes last, which traces the chain
// of stages that determined the end-to-end latency.
func criticalPath(ordered []Span, traceStart time.Time) []Stage {
	byID := make(map[SpanID]Span, len(ordered))
	children := make(map[SpanID][]Span, len(ordered))
	for _, s := range ordered {
		byID[s.SpanID] = s
		if !s.Parent.IsZero() {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	// Root: earliest span whose parent is absent from this collection
	// (a true root, or the oldest retained span after ring eviction).
	var root Span
	found := false
	for _, s := range ordered {
		if _, ok := byID[s.Parent]; s.Parent.IsZero() || !ok {
			root = s
			found = true
			break
		}
	}
	if !found {
		root = ordered[0]
	}

	// subtreeEnd memoizes the latest End within each span's subtree.
	ends := make(map[SpanID]time.Time, len(ordered))
	var subtreeEnd func(s Span) time.Time
	subtreeEnd = func(s Span) time.Time {
		if e, ok := ends[s.SpanID]; ok {
			return e
		}
		ends[s.SpanID] = s.EndTime // pre-set to break parent-link cycles
		latest := s.EndTime
		for _, c := range children[s.SpanID] {
			if e := subtreeEnd(c); e.After(latest) {
				latest = e
			}
		}
		ends[s.SpanID] = latest
		return latest
	}

	var path []Stage
	cur := root
	prevEnd := root.Start
	for {
		st := Stage{
			Name: cur.Name, Process: cur.Process, SpanID: cur.SpanID, Parent: cur.Parent,
			Offset: cur.Start.Sub(traceStart), Duration: cur.Duration(), Attrs: cur.Attrs,
		}
		if gap := cur.Start.Sub(prevEnd); gap > 0 {
			st.Gap = gap
		}
		path = append(path, st)
		kids := children[cur.SpanID]
		if len(kids) == 0 {
			return path
		}
		next := kids[0]
		for _, c := range kids[1:] {
			if subtreeEnd(c).After(subtreeEnd(next)) {
				next = c
			}
		}
		if len(path) > len(ordered) { // cycle guard
			return path
		}
		prevEnd = cur.EndTime
		cur = next
	}
}

// StageLabel names a span for aggregation across traces: the span name,
// qualified by the queue attribute's class when present, so task-queue,
// result-queue, and group-stream transits aggregate separately. The class is
// the queue name minus its final (per-entity ID) segment: "tasks.<ep>" ->
// "tasks", "results.group.<g>" -> "results.group".
func StageLabel(s Span) string {
	name := s.Name
	if q := s.Attrs["queue"]; q != "" {
		class := q
		if i := strings.LastIndexByte(q, '.'); i > 0 {
			class = q[:i]
		}
		name += "[" + class + "]"
	}
	return name
}

// String renders the summary as an indented stage table.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: %d spans, %s total\n", s.TraceID, s.Spans, s.Duration)
	fmt.Fprintf(&b, "critical path (%s unattributed):\n", s.Unattributed)
	for _, st := range s.CriticalPath {
		fmt.Fprintf(&b, "  +%-12s %-28s %-12s %s", st.Offset, st.Name, st.Duration, st.Process)
		if st.Gap > 0 {
			fmt.Fprintf(&b, "  (gap %s)", st.Gap)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
