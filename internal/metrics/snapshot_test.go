package metrics

import (
	"encoding/json"
	"testing"
	"time"
)

func TestTakeSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("tasks").Add(7)
	r.Gauge("backlog").Set(3)
	r.Histogram("latency").Observe(10 * time.Millisecond)

	s := r.TakeSnapshot()
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if v, ok := s.Counters["tasks"]; !ok || v != 7 {
		t.Errorf("counter tasks = %d,%v", v, ok)
	}
	if v, ok := s.GaugeValue("backlog"); !ok || v != 3 {
		t.Errorf("gauge backlog = %d,%v", v, ok)
	}
	if h, ok := s.HistogramValue("latency"); !ok || h.Count != 1 || h.P99 != 10*time.Millisecond {
		t.Errorf("histogram latency = %+v,%v", h, ok)
	}
}

func TestSnapshotDeltaOverlay(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Counter("b").Add(1)
	r.Gauge("g").Set(5)
	prev := r.TakeSnapshot()

	// Only "a" and a new counter change; "b" and "g" hold still.
	r.Counter("a").Add(1)
	r.Counter("c").Inc()
	cur := r.TakeSnapshot()

	d := cur.Delta(prev)
	if len(d.Counters) != 2 {
		t.Fatalf("delta counters = %v, want only a and c", d.Counters)
	}
	if _, ok := d.Counters["b"]; ok {
		t.Error("unchanged counter b should be elided from the delta")
	}
	if len(d.Gauges) != 0 {
		t.Errorf("unchanged gauge leaked into delta: %v", d.Gauges)
	}

	// Receiver overlays the delta onto its last absolute view.
	abs := prev.Clone()
	abs.Overlay(d)
	if abs.Counters["a"] != 2 || abs.Counters["b"] != 1 || abs.Counters["c"] != 1 {
		t.Errorf("overlay mismatch: %v", abs.Counters)
	}
	if abs.Gauges["g"] != 5 {
		t.Errorf("overlay lost gauge: %v", abs.Gauges)
	}

	// Delta against an empty snapshot is the full snapshot.
	full := cur.Delta(Snapshot{})
	if full.Len() != cur.Len() {
		t.Errorf("full delta Len = %d, want %d", full.Len(), cur.Len())
	}
}

func TestSnapshotBound(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"c1", "c2", "c3"} {
		r.Counter(n).Inc()
	}
	r.Gauge("g1").Set(1)
	r.Histogram("h1").Observe(time.Second)
	r.Histogram("h2").Observe(time.Second)

	s := r.TakeSnapshot()
	s.Bound(4)
	if s.Len() != 4 {
		t.Fatalf("bounded Len = %d, want 4", s.Len())
	}
	// Histograms drop first.
	if len(s.Histograms) != 0 {
		t.Errorf("histograms should be dropped first, got %v", s.Histograms)
	}
	// Under the cap: unchanged.
	s2 := r.TakeSnapshot()
	s2.Bound(100)
	if s2.Len() != 6 {
		t.Errorf("under-cap snapshot trimmed: %d", s2.Len())
	}
}

func TestSnapshotMergePrefixAndJSON(t *testing.T) {
	agent := NewRegistry()
	agent.Counter("tasks_received").Add(2)
	eng := NewRegistry()
	eng.Counter("completed").Add(2)
	eng.Histogram("exec").Observe(time.Millisecond)

	var s Snapshot
	s.Merge("", agent.TakeSnapshot())
	s.Merge("engine_", eng.TakeSnapshot())
	if _, ok := s.Counters["engine_completed"]; !ok {
		t.Fatalf("merge lost prefixed counter: %v", s.Counters)
	}

	// The wire format round-trips.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["engine_completed"] != 2 || back.Histograms["engine_exec"].Count != 1 {
		t.Errorf("round trip mismatch: %+v", back)
	}
}
