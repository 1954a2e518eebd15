package metrics

import (
	"sort"
)

// Snapshot is a serializable point-in-time view of a registry: counter and
// gauge values plus histogram summaries, keyed by metric name. Snapshots are
// the unit of metrics federation — endpoint agents piggyback them (or deltas
// of them) on heartbeats, and the web service overlays them into per-endpoint
// time series. All values are absolute, never increments, so a lost delta
// only delays convergence instead of corrupting it.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// TakeSnapshot captures every metric in the registry. Histogram summaries are
// computed per histogram under that histogram's own lock (the registry lock
// only guards the name maps).
func (r *Registry) TakeSnapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		histograms[name] = h
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramStats, len(histograms)),
	}
	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range histograms {
		s.Histograms[name] = h.Stats()
	}
	return s
}

// Len reports the total number of series in the snapshot.
func (s Snapshot) Len() int {
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}

// Clone deep-copies the snapshot.
func (s Snapshot) Clone() Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramStats, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v
	}
	return out
}

// Merge copies every series of o into s under the given name prefix,
// overwriting collisions. It is how an agent folds its engine registries into
// one heartbeat snapshot ("engine_" + name).
func (s *Snapshot) Merge(prefix string, o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64, len(o.Counters))
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]int64, len(o.Gauges))
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramStats, len(o.Histograms))
	}
	for k, v := range o.Counters {
		s.Counters[prefix+k] = v
	}
	for k, v := range o.Gauges {
		s.Gauges[prefix+k] = v
	}
	for k, v := range o.Histograms {
		s.Histograms[prefix+k] = v
	}
}

// Delta returns the compact encoding of s relative to prev: only series whose
// value changed (or that are new) are kept. Values stay absolute, so applying
// a delta is a plain overlay and a dropped delta self-heals on the next
// change. An empty prev yields the full snapshot.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{}
	for k, v := range s.Counters {
		if pv, ok := prev.Counters[k]; !ok || pv != v {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[k] = v
		}
	}
	for k, v := range s.Gauges {
		if pv, ok := prev.Gauges[k]; !ok || pv != v {
			if out.Gauges == nil {
				out.Gauges = make(map[string]int64)
			}
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Histograms {
		if pv, ok := prev.Histograms[k]; !ok || pv != v {
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistogramStats)
			}
			out.Histograms[k] = v
		}
	}
	return out
}

// Overlay applies d on top of s in place: every series present in d replaces
// (or adds to) the corresponding series in s. It is the receiver-side inverse
// of Delta.
func (s *Snapshot) Overlay(d Snapshot) {
	s.Merge("", d)
}

// Bound caps the snapshot at maxSeries series, dropping histograms first
// (they are the bulkiest series) and then the alphabetically-last counters
// and gauges. It protects the heartbeat channel from pathological metric
// cardinality; under the cap the snapshot is returned unchanged. The drop is
// deterministic so the same registry always trims the same way.
func (s *Snapshot) Bound(maxSeries int) {
	if maxSeries <= 0 || s.Len() <= maxSeries {
		return
	}
	over := s.Len() - maxSeries
	over -= dropLast(&s.Histograms, over)
	if over > 0 {
		over -= dropLast(&s.Gauges, over)
	}
	if over > 0 {
		dropLast(&s.Counters, over)
	}
}

// dropLast removes up to n alphabetically-last keys from m, returning how
// many were removed.
func dropLast[V any](m *map[string]V, n int) int {
	if n <= 0 || len(*m) == 0 {
		return 0
	}
	keys := make([]string, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dropped := 0
	for i := len(keys) - 1; i >= 0 && dropped < n; i-- {
		delete(*m, keys[i])
		dropped++
	}
	return dropped
}

// GaugeValue returns a gauge by name.
func (s Snapshot) GaugeValue(name string) (int64, bool) {
	v, ok := s.Gauges[name]
	return v, ok
}

// HistogramValue returns a histogram summary by name.
func (s Snapshot) HistogramValue(name string) (HistogramStats, bool) {
	v, ok := s.Histograms[name]
	return v, ok
}
