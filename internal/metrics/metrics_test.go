package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	if g.Value() != 42 {
		t.Errorf("gauge = %d, want 42", g.Value())
	}
	if got := g.Add(-2); got != 40 {
		t.Errorf("Add returned %d, want 40", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(16)
	if s := h.Stats(); h.Mean() != 0 || s.Max != 0 || s.Min != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram should report zeros")
	}
	for i := 1; i <= 10; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 10 {
		t.Errorf("count = %d, want 10", h.Count())
	}
	if h.Mean() != 5500*time.Microsecond {
		t.Errorf("mean = %s, want 5.5ms", h.Mean())
	}
	if s := h.Stats(); s.Max != 10*time.Millisecond || s.Min != time.Millisecond {
		t.Errorf("max, min = %s, %s, want 10ms, 1ms", s.Max, s.Min)
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	h := NewHistogram(16)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i))
	}
	// Reservoir cap is 16 so only 16 samples retained, but percentiles
	// must remain ordered and within [min, max] of retained samples.
	p50, p95 := h.Percentile(50), h.Percentile(95)
	if p50 > p95 {
		t.Errorf("p50 %s > p95 %s", p50, p95)
	}
	if h.Percentile(0) > h.Percentile(100) {
		t.Error("p0 > p100")
	}
	if h.Percentile(100) > 100 || h.Percentile(0) < 1 {
		t.Errorf("percentile outside observed range: p0=%s p100=%s", h.Percentile(0), h.Percentile(100))
	}
}

func TestHistogramReservoirBounded(t *testing.T) {
	h := NewHistogram(8)
	for i := 0; i < 100000; i++ {
		h.Observe(time.Duration(i))
	}
	h.mu.Lock()
	n := len(h.samples)
	h.mu.Unlock()
	if n > 8 {
		t.Errorf("reservoir grew to %d, cap 8", n)
	}
	if h.Count() != 100000 {
		t.Errorf("count = %d, want 100000", h.Count())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(64)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 2000 {
		t.Errorf("count = %d, want 2000", h.Count())
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("tasks")
	c1.Inc()
	if c2 := r.Counter("tasks"); c2.Value() != 1 {
		t.Error("Counter did not return the same instance")
	}
	g := r.Gauge("depth")
	g.Set(7)
	if r.Gauge("depth").Value() != 7 {
		t.Error("Gauge did not return the same instance")
	}
	h := r.Histogram("lat")
	h.Observe(time.Second)
	if r.Histogram("lat").Count() != 1 {
		t.Error("Histogram did not return the same instance")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(-1)
	snap := r.Snapshot()
	if snap["a"] != 3 || snap["b"] != -1 {
		t.Errorf("snapshot = %v, want a=3 b=-1", snap)
	}
}
