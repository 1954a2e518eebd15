package trace

import (
	"strings"
	"testing"
	"time"
)

// chain builds a parent->child span sequence with known offsets/durations.
func chain(t0 time.Time, id TraceID) []Span {
	mk := func(name string, parent SpanID, off, dur time.Duration) Span {
		return Span{TraceID: id, SpanID: NewSpanID(), Parent: parent, Name: name,
			Start: t0.Add(off), EndTime: t0.Add(off + dur)}
	}
	root := mk("submit", SpanID{}, 0, 10*time.Millisecond)
	deliver := mk("deliver", root.SpanID, 12*time.Millisecond, 3*time.Millisecond)
	execute := mk("execute", deliver.SpanID, 15*time.Millisecond, 20*time.Millisecond)
	// A short sibling that finishes before execute: must NOT be on the
	// critical path.
	queue := mk("queue", deliver.SpanID, 15*time.Millisecond, 1*time.Millisecond)
	return []Span{execute, queue, root, deliver} // shuffled on purpose
}

func TestAnalyze(t *testing.T) {
	t0 := time.Now()
	id := NewTraceID()
	sum, err := Analyze(chain(t0, id))
	if err != nil {
		t.Fatal(err)
	}
	if sum.TraceID != id || sum.Spans != 4 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.Duration != 35*time.Millisecond {
		t.Errorf("duration = %v, want 35ms", sum.Duration)
	}
	var names []string
	for _, st := range sum.CriticalPath {
		names = append(names, st.Name)
	}
	if got := strings.Join(names, ">"); got != "submit>deliver>execute" {
		t.Errorf("critical path = %s", got)
	}
	// Gap between submit end (10ms) and deliver start (12ms) is 2ms.
	if sum.CriticalPath[1].Gap != 2*time.Millisecond {
		t.Errorf("deliver gap = %v, want 2ms", sum.CriticalPath[1].Gap)
	}
	// Unattributed = 35 - (10+3+20) = 2ms of dead time.
	if sum.Unattributed != 2*time.Millisecond {
		t.Errorf("unattributed = %v, want 2ms", sum.Unattributed)
	}
	if sum.Stages[0].Name != "submit" || sum.Stages[0].Offset != 0 {
		t.Errorf("stages[0] = %+v, want submit at offset 0", sum.Stages[0])
	}
	out := sum.String()
	if !strings.Contains(out, "submit") || !strings.Contains(out, id.String()) {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("empty input must error")
	}
	a := Span{TraceID: NewTraceID(), SpanID: NewSpanID()}
	b := Span{TraceID: NewTraceID(), SpanID: NewSpanID()}
	if _, err := Analyze([]Span{a, b}); err == nil {
		t.Error("mixed traces must error")
	}
}

func TestAnalyzeOrphanRoot(t *testing.T) {
	// After ring eviction the true root may be gone: the earliest span with
	// a dangling parent link becomes the root.
	t0 := time.Now()
	id := NewTraceID()
	gone := NewSpanID()
	mid := Span{TraceID: id, SpanID: NewSpanID(), Parent: gone, Name: "mid",
		Start: t0, EndTime: t0.Add(5 * time.Millisecond)}
	leaf := Span{TraceID: id, SpanID: NewSpanID(), Parent: mid.SpanID, Name: "leaf",
		Start: t0.Add(5 * time.Millisecond), EndTime: t0.Add(9 * time.Millisecond)}
	sum, err := Analyze([]Span{leaf, mid})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.CriticalPath) != 2 || sum.CriticalPath[0].Name != "mid" {
		t.Fatalf("critical path %+v", sum.CriticalPath)
	}
}

func TestStageLabel(t *testing.T) {
	cases := []struct {
		name, queue, want string
	}{
		{"endpoint.dispatch", "", "endpoint.dispatch"},
		{"broker.deliver", "tasks.ep1", "broker.deliver[tasks]"},
		{"broker.deliver", "results.ep1", "broker.deliver[results]"},
		{"broker.deliver", "results.group.g1", "broker.deliver[results.group]"},
		{"broker.deliver", "plain", "broker.deliver[plain]"},
	}
	for _, c := range cases {
		s := Span{Name: c.name}
		if c.queue != "" {
			s.Attrs = map[string]string{"queue": c.queue}
		}
		if got := StageLabel(s); got != c.want {
			t.Errorf("StageLabel(%s,%s) = %q, want %q", c.name, c.queue, got, c.want)
		}
	}
}
