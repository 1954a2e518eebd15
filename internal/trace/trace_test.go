package trace

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

func TestIDUniqueness(t *testing.T) {
	seenT := make(map[TraceID]bool)
	seenS := make(map[SpanID]bool)
	for i := 0; i < 10000; i++ {
		tid := NewTraceID()
		if len(tid.String()) != 32 {
			t.Fatalf("trace id %q: want 32 hex chars", tid)
		}
		if seenT[tid] {
			t.Fatalf("duplicate trace id %s", tid)
		}
		seenT[tid] = true
		sid := NewSpanID()
		if len(sid.String()) != 16 {
			t.Fatalf("span id %q: want 16 hex chars", sid)
		}
		if seenS[sid] {
			t.Fatalf("duplicate span id %s", sid)
		}
		seenS[sid] = true
	}
}

func TestSpanLifecycle(t *testing.T) {
	c := NewCollector(16)
	tr := NewTracer("test", c)

	root := tr.StartSpan(Context{}, "root")
	root.SetAttr("k", "v")
	rc := root.Context()
	if !rc.Valid() {
		t.Fatal("root context invalid")
	}

	child := tr.StartSpan(rc, "child")
	cc := child.Context()
	if cc.TraceID != rc.TraceID {
		t.Fatalf("child trace %s != root trace %s", cc.TraceID, rc.TraceID)
	}
	child.EndStatus("error")
	child.End() // second End must not double-record
	root.End()

	spans := c.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, ch := byName["root"], byName["child"]
	if !r.Parent.IsZero() {
		t.Errorf("root parent = %s, want none", r.Parent)
	}
	if ch.Parent != r.SpanID {
		t.Errorf("child parent = %s, want %s", ch.Parent, r.SpanID)
	}
	if ch.Status != "error" {
		t.Errorf("child status = %q, want error (first End wins)", ch.Status)
	}
	if r.Attrs["k"] != "v" {
		t.Errorf("root attrs = %v", r.Attrs)
	}
	if r.Process != "test" {
		t.Errorf("process = %q", r.Process)
	}
	if r.Duration() < 0 || r.EndTime.Before(r.Start) {
		t.Errorf("bad timing: start %v end %v", r.Start, r.EndTime)
	}
}

func TestAttrAfterEndIgnored(t *testing.T) {
	c := NewCollector(4)
	tr := NewTracer("test", c)
	sp := tr.StartSpan(Context{}, "s")
	sp.End()
	sp.SetAttr("late", "x")
	if got := c.Snapshot()[0].Attrs; got != nil {
		t.Errorf("attrs after end = %v, want none", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan(Context{}, "noop")
	if sp != (ActiveSpan{}) {
		t.Fatal("nil tracer must hand out the no-op span")
	}
	// All of these must be no-ops, not panics.
	sp.SetAttr("k", "v")
	sp.EndStatus("error")
	sp.End()
	if sp.Context().Valid() {
		t.Error("no-op span context must be invalid")
	}
	if tr.Collector() != nil {
		t.Error("nil tracer collector must be nil")
	}
	parent := Context{TraceID: NewTraceID()}
	if got := tr.Record(parent, "x", time.Now(), time.Now()); got != parent {
		t.Error("nil tracer Record must return parent unchanged")
	}
	ctx, s2 := tr.Start(context.Background(), "noop")
	if s2 != (ActiveSpan{}) || FromContext(ctx).Valid() {
		t.Error("nil tracer Start must be a no-op")
	}
	var nc Context
	if nc.Valid() {
		t.Error("zero context must be invalid")
	}
	var ps *ActiveSpan // a caller holding spans by pointer: nil when untraced
	ps.SetAttr("k", "v")
	ps.End()
	if ps.Context().Valid() {
		t.Error("nil span context must be invalid")
	}
}

func TestContextPropagation(t *testing.T) {
	c := NewCollector(8)
	tr := NewTracer("test", c)
	ctx, root := tr.Start(context.Background(), "outer")
	_, inner := tr.Start(ctx, "inner")
	inner.End()
	root.End()
	spans := c.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[0].Name != "inner" || spans[0].Parent != root.Context().SpanID {
		t.Errorf("inner span %+v not parented to outer", spans[0])
	}
}

func TestRecord(t *testing.T) {
	c := NewCollector(8)
	tr := NewTracer("interchange", c)
	parent := Context{TraceID: NewTraceID(), SpanID: NewSpanID()}
	start := time.Now().Add(-time.Second)
	end := time.Now()
	got := tr.Record(parent, "engine.execute", start, end, "worker", "w1")
	if got.TraceID != parent.TraceID || got.SpanID == parent.SpanID {
		t.Fatalf("recorded context %+v", got)
	}
	s := c.Snapshot()[0]
	if s.Parent != parent.SpanID || s.Attrs["worker"] != "w1" {
		t.Errorf("span %+v", s)
	}
	if d := s.Duration(); d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Errorf("duration %v", d)
	}
}

func TestCollectorRing(t *testing.T) {
	c := NewCollector(4)
	tr := NewTracer("ring", c)
	id := NewTraceID()
	base := time.Now()
	for i := 0; i < 7; i++ {
		at := base.Add(time.Duration(i) * time.Millisecond)
		tr.Record(Context{TraceID: id}, string(rune('a'+i)), at, at)
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Total() != 7 || c.Dropped() != 3 {
		t.Fatalf("total %d dropped %d", c.Total(), c.Dropped())
	}
	snap := c.Snapshot()
	want := []string{"d", "e", "f", "g"}
	for i, s := range snap {
		if s.Name != want[i] {
			t.Fatalf("snapshot[%d] = %q, want %q (oldest-first)", i, s.Name, want[i])
		}
	}
	if got := c.Trace(id); len(got) != 4 || got[0].Name != "d" {
		t.Errorf("Trace: %d spans, first %q", len(got), got[0].Name)
	}
	if ids := c.TraceIDs(); len(ids) != 1 || ids[0] != id {
		t.Errorf("TraceIDs = %v", ids)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Errorf("len after reset = %d", c.Len())
	}
	if c.Total() != 7 {
		t.Errorf("total after reset = %d (counters must persist)", c.Total())
	}
	tr.Record(Context{TraceID: id}, "h", base, base)
	if snap := c.Snapshot(); len(snap) != 1 || snap[0].Name != "h" {
		t.Errorf("post-reset snapshot = %v", snap)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := NewCollector(8)
	tr := NewTracer("p", c)
	root := tr.StartSpan(Context{}, "a")
	root.SetAttr("x", "1")
	root.End()
	child := tr.StartSpan(root.Context(), "b")
	child.End()

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := c.Snapshot()
	if len(got) != len(orig) {
		t.Fatalf("%d spans, want %d", len(got), len(orig))
	}
	for i := range got {
		if got[i].SpanID != orig[i].SpanID || got[i].Name != orig[i].Name ||
			got[i].Parent != orig[i].Parent || got[i].Attrs["x"] != orig[i].Attrs["x"] {
			t.Errorf("span %d: got %+v want %+v", i, got[i], orig[i])
		}
		if !got[i].Start.Equal(orig[i].Start) || !got[i].EndTime.Equal(orig[i].EndTime) {
			t.Errorf("span %d times drifted", i)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	c := NewCollector(256)
	tr := NewTracer("conc", c)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartSpan(Context{}, "s")
				sp.SetAttr("i", "x")
				sp.End()
				_ = c.Len()
				if i%50 == 0 {
					_ = c.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if c.Total() != 1600 {
		t.Fatalf("total = %d", c.Total())
	}
}

func BenchmarkStartEnd(b *testing.B) {
	tr := NewTracer("bench", NewCollector(DefaultCapacity))
	parent := Context{TraceID: NewTraceID(), SpanID: NewSpanID()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(parent, "stage")
		sp.End()
	}
}

func BenchmarkStartEndNoop(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(Context{}, "stage")
		sp.SetAttr("k", "v")
		sp.End()
	}
}

func BenchmarkRecord(b *testing.B) {
	tr := NewTracer("bench", NewCollector(DefaultCapacity))
	parent := Context{TraceID: NewTraceID(), SpanID: NewSpanID()}
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(parent, "broker.deliver", now, now, "queue", "tasks.ep")
	}
}

// BenchmarkStartAttrEnd is the webservice's per-task span: a UUID-valued
// attribute, packed into the slot.
func BenchmarkStartAttrEnd(b *testing.B) {
	tr := NewTracer("bench", NewCollector(DefaultCapacity))
	parent := Context{TraceID: NewTraceID(), SpanID: NewSpanID()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(parent, "result.process")
		sp.SetAttr("task", "0f8e7d6c-5b4a-4392-8170-6f5e4d3c2b1a")
		sp.End()
	}
}

func BenchmarkSnapshot(b *testing.B) {
	c := NewCollector(DefaultCapacity)
	tr := NewTracer("bench", c)
	now := time.Now()
	for i := 0; i < DefaultCapacity; i++ {
		tr.Record(Context{}, "s", now, now, "task", "0f8e7d6c-5b4a-4392-8170-6f5e4d3c2b1a")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Snapshot()
	}
}

func TestEndAll(t *testing.T) {
	c := NewCollector(8)
	tr := NewTracer("batch", c)
	spans := []ActiveSpan{tr.StartSpan(Context{}, "a"), {}, tr.StartSpan(Context{}, "b"), tr.StartSpan(Context{}, "c")}
	spans[2].EndStatus("error")
	EndAll(spans, "")
	EndAll(spans, "late") // every span already ended: records nothing
	got := c.Snapshot()
	if len(got) != 3 || got[0].Name != "b" || got[0].Status != "error" ||
		got[1].Name != "a" || got[2].Name != "c" || got[1].Status != "" || !got[1].EndTime.Equal(got[2].EndTime) {
		t.Fatalf("spans %+v", got)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := range spans {
			spans[i] = tr.StartSpan(Context{}, "s")
		}
		EndAll(spans, "")
	}); n != 0 {
		t.Errorf("EndAll allocates %v times, want 0", n)
	}
}
