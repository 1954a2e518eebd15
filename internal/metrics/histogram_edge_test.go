package metrics

import (
	"sync"
	"testing"
	"time"
)

// Edge cases around histogram quantiles: empty histograms must report zeros
// (not NaN or panics), and a single observation must be every percentile.

func TestEmptyHistogramQuantiles(t *testing.T) {
	h := NewHistogram(8)
	for _, p := range []float64{0, 50, 99, 100} {
		if v := h.Percentile(p); v != 0 {
			t.Errorf("empty Percentile(%v) = %v, want 0", p, v)
		}
	}
	s := h.Stats()
	if s.Count != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Errorf("empty Stats = %+v, want zeros", s)
	}
}

func TestSingleObservationPercentiles(t *testing.T) {
	h := NewHistogram(8)
	h.Observe(42 * time.Millisecond)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if v := h.Percentile(p); v != 42*time.Millisecond {
			t.Errorf("Percentile(%v) = %v, want 42ms", p, v)
		}
	}
	s := h.Stats()
	if s.P99 != 42*time.Millisecond || s.Min != 42*time.Millisecond || s.Max != 42*time.Millisecond {
		t.Errorf("single-observation Stats = %+v", s)
	}
}

// TestSnapshotConcurrentObserve drives TakeSnapshot and Stats against
// concurrent observers; meaningful under -race (snapshot-vs-observe races
// surfaced here before the single-lock Stats work).
func TestSnapshotConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				r.Histogram("lat").Observe(time.Duration(i%1000) * time.Microsecond)
				r.Counter("n").Inc()
			}
		}(w)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := r.TakeSnapshot()
		hs, ok := s.HistogramValue("lat")
		if !ok {
			continue
		}
		// Internal consistency of one snapshot: percentiles bounded by
		// min/max, count covers the sum's observations.
		if hs.Count > 0 && (hs.P50 < hs.Min || hs.P99 > hs.Max) {
			t.Fatalf("inconsistent snapshot: %+v", hs)
		}
		_ = s.Delta(Snapshot{})
	}
	close(done)
	wg.Wait()
}
