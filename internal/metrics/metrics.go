// Package metrics provides the lightweight counters and latency histograms
// used throughout the stack for accounting and by the benchmark harness.
// All types are safe for concurrent use.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be negative for gauge-like use, but prefer Gauge).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts by n and returns the new value.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates duration observations and reports percentile
// summaries. It keeps raw samples up to a cap, then switches to reservoir
// sampling so memory stays bounded on long benches.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	count   int64
	sum     time.Duration
	max     time.Duration
	min     time.Duration
	// capacity of the reservoir
	cap int
	// deterministic LCG for reservoir replacement, so benches reproduce
	rng uint64
}

// NewHistogram returns a histogram with the given reservoir capacity
// (<=0 selects 4096).
func NewHistogram(capacity int) *Histogram {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Histogram{cap: capacity, rng: 0x9e3779b97f4a7c15, min: math.MaxInt64}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if d < h.min {
		h.min = d
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, d)
		return
	}
	// Reservoir sampling: replace a random slot with probability cap/count.
	h.rng = h.rng*6364136223846793005 + 1442695040888963407
	idx := h.rng % uint64(h.count)
	if idx < uint64(h.cap) {
		h.samples[idx] = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average observation, or zero when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Percentile returns the p-th percentile (0 < p <= 100) over the retained
// samples. Returns zero when empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return percentileSorted(h.sortedSamplesLocked(), p)
}

// sortedSamplesLocked copies and sorts the reservoir (caller holds h.mu).
func (h *Histogram) sortedSamplesLocked() []time.Duration {
	sorted := make([]time.Duration, len(h.samples))
	copy(sorted, h.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}

// percentileSorted interpolates the p-th percentile over pre-sorted samples.
func percentileSorted(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// HistogramStats is a consistent point-in-time histogram snapshot. The JSON
// tags keep federated snapshots compact on the heartbeat channel.
type HistogramStats struct {
	Count int64         `json:"n"`
	Sum   time.Duration `json:"sum"`
	Mean  time.Duration `json:"mean,omitempty"`
	Min   time.Duration `json:"min,omitempty"`
	Max   time.Duration `json:"max,omitempty"`
	P50   time.Duration `json:"p50,omitempty"`
	P95   time.Duration `json:"p95,omitempty"`
	P99   time.Duration `json:"p99,omitempty"`
}

// Stats computes every summary field under one lock acquisition, so the
// fields are mutually consistent even while observations stream in
// concurrently (repeated single-field getters could mix epochs: e.g. a count
// from before an observation with a max from after it).
func (h *Histogram) Stats() HistogramStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramStats{Count: h.count, Sum: h.sum}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / time.Duration(h.count)
	s.Min = h.min
	s.Max = h.max
	sorted := h.sortedSamplesLocked()
	s.P50 = percentileSorted(sorted, 50)
	s.P95 = percentileSorted(sorted, 95)
	s.P99 = percentileSorted(sorted, 99)
	return s
}

// Registry is a named collection of metrics, one per subsystem instance.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(0)
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns all counter and gauge values by name, for reporting.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}
