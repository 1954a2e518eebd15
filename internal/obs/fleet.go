package obs

import (
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/metrics"
	"globuscompute/internal/statestore"
)

// Fleet store defaults. Every bound is fixed at construction so the store's
// memory footprint is a hard function of configuration, never of traffic.
const (
	DefaultRingPoints   = 120
	DefaultMaxEndpoints = 256
	DefaultMaxSeries    = 512
	DefaultHealthWindow = time.Minute
	DefaultStaleAfter   = 30 * time.Second
	DefaultFleetPrefix  = "gc_endpoint"
	// DefaultServiceRateHalfLife is the EWMA half-life for the per-endpoint
	// service-rate estimate derived from heartbeat load-report deltas.
	DefaultServiceRateHalfLife = 10 * time.Second
)

// FleetConfig sets a FleetStore's staleness horizon. The store keeps
// DefaultRingPoints samples per endpoint, caps tracked endpoints at
// DefaultMaxEndpoints (reports from endpoints beyond the cap are counted and
// dropped rather than growing memory), reads Health rates over
// DefaultHealthWindow and prefixes federated names with DefaultFleetPrefix.
type FleetConfig struct {
	// StaleAfter marks an endpoint offline in Health/federation output when
	// no report has arrived within it (default DefaultStaleAfter).
	StaleAfter time.Duration
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.StaleAfter <= 0 {
		c.StaleAfter = DefaultStaleAfter
	}
	return c
}

// Point is one ring-buffer sample: a merged (agent + service-local) snapshot
// at a known time.
type Point struct {
	Time time.Time
	Snap metrics.Snapshot
}

// endpointState is everything the store keeps per endpoint.
type endpointState struct {
	// absolute is the agent-reported view, maintained by overlaying heartbeat
	// deltas. Values are absolute, so a missed delta self-heals.
	absolute metrics.Snapshot
	// local is the service-side registry for this endpoint (result counts,
	// round-trip latency) — signals that must survive an agent crash.
	local *metrics.Registry
	ring  []Point
	next  int
	n     int
	// lastReport is the last heartbeat (Touch or Ingest) time.
	lastReport time.Time
	reports    int64
	// stopped marks a clean shutdown (final offline heartbeat): the endpoint
	// is expected to be silent, so staleness alerting must not page on it. A
	// crash never sets it — that is exactly the silence worth alerting on.
	stopped bool
	// Service-rate EWMA state, fed by ObserveLoad from heartbeat load
	// reports: lastPublished/lastLoadAt anchor the next delta, rate is the
	// smoothed tasks/s estimate (valid once rateKnown).
	lastPublished int64
	lastReceived  int64
	lastLoadAt    time.Time
	rate          float64
	rateKnown     bool
}

func (st *endpointState) push(p Point) {
	st.ring[st.next] = p
	st.next = (st.next + 1) % len(st.ring)
	if st.n < len(st.ring) {
		st.n++
	}
}

// points copies retained samples oldest-first.
func (st *endpointState) points() []Point {
	out := make([]Point, 0, st.n)
	start := st.next - st.n
	if start < 0 {
		start += len(st.ring)
	}
	for i := 0; i < st.n; i++ {
		out = append(out, st.ring[(start+i)%len(st.ring)])
	}
	return out
}

// merged folds the service-local registry over the agent-reported view.
func (st *endpointState) merged(maxSeries int) metrics.Snapshot {
	s := st.absolute.Clone()
	s.Merge("ws_", st.local.TakeSnapshot())
	s.Bound(maxSeries)
	return s
}

// FleetStore is the web service's fixed-memory metrics backend: one ring of
// merged snapshots per endpoint, fed by heartbeat-piggybacked deltas and by
// service-side observations. It backs GET /metrics/fleet (federation), GET
// /debug/fleet (health JSON), and the SLO engine's windowed queries.
type FleetStore struct {
	cfg FleetConfig

	mu       sync.Mutex
	eps      map[string]*endpointState
	rejected int64
}

// NewFleetStore builds a store with cfg (zero fields take defaults).
func NewFleetStore(cfg FleetConfig) *FleetStore {
	return &FleetStore{cfg: cfg.withDefaults(), eps: make(map[string]*endpointState)}
}

// state returns the endpoint's state, creating it under the endpoint cap;
// nil when the cap rejects a new endpoint.
func (f *FleetStore) state(id string) *endpointState {
	st, ok := f.eps[id]
	if !ok {
		if len(f.eps) >= DefaultMaxEndpoints {
			f.rejected++
			return nil
		}
		st = &endpointState{
			local: metrics.NewRegistry(),
			ring:  make([]Point, DefaultRingPoints),
		}
		f.eps[id] = st
	}
	return st
}

// Touch records a heartbeat from the endpoint without metrics payload (most
// heartbeats: snapshots are interval-decimated on the agent side).
func (f *FleetStore) Touch(id string, now time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st := f.state(id); st != nil {
		st.lastReport = now
		st.stopped = false
	}
}

// MarkStopped records a clean shutdown: the endpoint reported itself offline,
// so its silence is expected and staleness alerting stands down until it
// reports again.
func (f *FleetStore) MarkStopped(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st := f.state(id); st != nil {
		st.stopped = true
	}
}

// Ingest overlays a heartbeat-piggybacked snapshot delta onto the endpoint's
// absolute view and samples a ring point. Returns false when the endpoint cap
// dropped the report.
func (f *FleetStore) Ingest(id string, delta metrics.Snapshot, now time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.state(id)
	if st == nil {
		return false
	}
	st.absolute.Overlay(delta)
	st.absolute.Bound(DefaultMaxSeries)
	st.lastReport = now
	st.stopped = false
	st.reports++
	st.push(Point{Time: now, Snap: st.merged(DefaultMaxSeries)})
	return true
}

// ObserveLoad folds one heartbeat load report into the endpoint's view: the
// utilization numbers land as service-side gauges (so load-report-only
// endpoints — sim agents, thin agents with no metrics registry — still show
// pending/worker columns in Health and federation), and the cumulative
// received/published counters drive a service-rate EWMA: the smoothed rate at
// which this endpoint actually completes work. That estimate is the
// observability groundwork for service-rate-aware placement — it breaks the
// depth-1 tie between a busy slow member and a busy fast one.
func (f *FleetStore) ObserveLoad(id string, lr statestore.EndpointLoad, now time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.state(id)
	if st == nil {
		return
	}
	st.local.Gauge("pending_tasks").Set(int64(lr.PendingTasks))
	st.local.Gauge("total_workers").Set(int64(lr.TotalWorkers))
	st.local.Gauge("free_workers").Set(int64(lr.FreeWorkers))
	if lr.EgressBacklog != nil {
		st.local.Gauge("egress_backlog").Set(int64(*lr.EgressBacklog))
	}
	if !st.lastLoadAt.IsZero() {
		dt := now.Sub(st.lastLoadAt).Seconds()
		if dt > 0 {
			d := lr.ResultsPublished - st.lastPublished
			if d < 0 {
				// Agent restart reset the counter; count from zero.
				d = lr.ResultsPublished
			}
			inst := float64(d) / dt
			// Time-aware EWMA: alpha approaches 1 as the gap between
			// reports grows past the half-life, so sparse reporters still
			// converge instead of being stuck on stale history.
			alpha := 1 - math.Pow(0.5, dt/DefaultServiceRateHalfLife.Seconds())
			if !st.rateKnown {
				st.rate = inst
				st.rateKnown = true
			} else {
				st.rate += alpha * (inst - st.rate)
			}
		}
	}
	st.lastLoadAt = now
	st.lastPublished = lr.ResultsPublished
	st.lastReceived = lr.TasksReceived
}

// ServiceRate returns the endpoint's smoothed completion rate in tasks per
// second. ok is false until two load reports have been observed.
func (f *FleetStore) ServiceRate(id string) (float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, found := f.eps[id]
	if !found || !st.rateKnown {
		return 0, false
	}
	return st.rate, true
}

// Local returns the service-side registry for an endpoint, where the web
// service records its own per-endpoint observations (result outcomes,
// round-trip latency). Series merge into the endpoint's view under a "ws_"
// prefix. Returns nil when the endpoint cap is hit.
func (f *FleetStore) Local(id string) *metrics.Registry {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st := f.state(id); st != nil {
		return st.local
	}
	return nil
}

// Tick samples every endpoint's merged view into its ring. Called on a timer
// (and before SLO evaluation) so windows advance even when heartbeats stall —
// exactly the regime staleness alerting must observe.
func (f *FleetStore) Tick(now time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, st := range f.eps {
		st.push(Point{Time: now, Snap: st.merged(DefaultMaxSeries)})
	}
}

// Endpoints lists tracked endpoint IDs, sorted.
func (f *FleetStore) Endpoints() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.eps))
	for id := range f.eps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Rejected reports how many endpoint reports the DefaultMaxEndpoints cap
// dropped.
func (f *FleetStore) Rejected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rejected
}

// Staleness reports time since the endpoint's last report. ok is false for
// unknown or never-reporting endpoints.
func (f *FleetStore) Staleness(id string, now time.Time) (time.Duration, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.eps[id]
	if !ok || st.lastReport.IsZero() || st.stopped {
		return 0, false
	}
	return now.Sub(st.lastReport), true
}

// Merged returns the endpoint's current merged snapshot.
func (f *FleetStore) Merged(id string) (metrics.Snapshot, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.eps[id]
	if !ok {
		return metrics.Snapshot{}, false
	}
	return st.merged(DefaultMaxSeries), true
}

// Points returns the endpoint's retained ring samples, oldest first.
func (f *FleetStore) Points(id string) []Point {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.eps[id]
	if !ok {
		return nil
	}
	return st.points()
}

// window returns the oldest and newest ring points within [now-window, now].
func (f *FleetStore) window(id string, window time.Duration, now time.Time) (oldest, newest Point, ok bool) {
	f.mu.Lock()
	st, found := f.eps[id]
	var pts []Point
	if found {
		pts = st.points()
	}
	f.mu.Unlock()
	cutoff := now.Add(-window)
	first := -1
	for i, p := range pts {
		if !p.Time.Before(cutoff) {
			first = i
			break
		}
	}
	if first < 0 || first == len(pts)-1 {
		return Point{}, Point{}, false
	}
	return pts[first], pts[len(pts)-1], true
}

// CounterDelta returns the increase of a counter over the window along with
// the span actually covered. A decrease (agent restart) counts from zero.
func (f *FleetStore) CounterDelta(id, name string, window time.Duration, now time.Time) (int64, time.Duration, bool) {
	oldest, newest, ok := f.window(id, window, now)
	if !ok {
		return 0, 0, false
	}
	ov := oldest.Snap.Counters[name]
	nv := newest.Snap.Counters[name]
	d := nv - ov
	if d < 0 {
		d = nv
	}
	return d, newest.Time.Sub(oldest.Time), true
}

// EndpointHealth is one endpoint's row in the fleet health report.
type EndpointHealth struct {
	EndpointID string `json:"endpoint_id"`
	Online     bool   `json:"online"`
	// Stopped marks a clean shutdown (deliberately offline, not crashed).
	Stopped           bool      `json:"stopped,omitempty"`
	LastReport        time.Time `json:"last_report,omitempty"`
	StalenessSeconds  float64   `json:"staleness_seconds"`
	PendingTasks      int64     `json:"pending_tasks"`
	TotalWorkers      int64     `json:"total_workers"`
	FreeWorkers       int64     `json:"free_workers"`
	WorkerUtilization float64   `json:"worker_utilization"`
	// EgressBacklog is nil when the agent has not reported the gauge —
	// distinguishable from a genuine zero backlog.
	EgressBacklog    *int64 `json:"egress_backlog,omitempty"`
	TasksReceived    int64  `json:"tasks_received"`
	ResultsPublished int64  `json:"results_published"`
	// Routed counts policy-driven placements onto this endpoint (submissions
	// addressed to a routing group the placement layer resolved here);
	// RoutedShare is this endpoint's fraction of all routed placements in the
	// fleet — the live view of how a placement policy is spreading load.
	Routed      int64   `json:"routed,omitempty"`
	RoutedShare float64 `json:"routed_share,omitempty"`
	// ServiceRatePerS is the smoothed completion rate (tasks/s) derived from
	// heartbeat load-report deltas; zero until two reports have landed.
	ServiceRatePerS   float64 `json:"service_rate_per_s,omitempty"`
	DeadLettered      int64   `json:"dead_lettered"`
	Requeued          int64   `json:"requeued"`
	DeadLetterPerMin  float64 `json:"dead_letter_per_min"`
	RequeuePerMin     float64 `json:"requeue_per_min"`
	FailureRatio      float64 `json:"failure_ratio"`
	P99LatencySeconds float64 `json:"p99_latency_seconds"`
	Series            int     `json:"series"`
}

// FleetHealth is the aggregate health report behind GET /debug/fleet.
type FleetHealth struct {
	Time              time.Time        `json:"time"`
	EndpointsTotal    int              `json:"endpoints_total"`
	EndpointsOnline   int              `json:"endpoints_online"`
	RejectedEndpoints int64            `json:"rejected_endpoints,omitempty"`
	Endpoints         []EndpointHealth `json:"endpoints"`
}

// counterAny sums the named counters (agent and engine register cognate
// series under different prefixes).
func counterAny(s metrics.Snapshot, names ...string) int64 {
	var total int64
	for _, n := range names {
		total += s.Counters[n]
	}
	return total
}

// gaugeAny returns the first present gauge among names — agent-reported
// series first, with the service-side "ws_" load-report gauges as fallback
// for endpoints that report load but no metrics snapshot.
func gaugeAny(s metrics.Snapshot, names ...string) int64 {
	for _, n := range names {
		if v, ok := s.GaugeValue(n); ok {
			return v
		}
	}
	return 0
}

// Health assembles the per-endpoint liveness / backlog / utilization /
// dead-letter view over the configured window.
func (f *FleetStore) Health(now time.Time) FleetHealth {
	h := FleetHealth{Time: now, RejectedEndpoints: f.Rejected()}
	for _, id := range f.Endpoints() {
		s, _ := f.Merged(id)
		eh := EndpointHealth{EndpointID: id, Series: s.Len()}
		if stale, ok := f.Staleness(id, now); ok {
			eh.StalenessSeconds = stale.Seconds()
			eh.Online = stale <= f.cfg.StaleAfter
		}
		f.mu.Lock()
		if st := f.eps[id]; st != nil {
			eh.LastReport = st.lastReport
			eh.Stopped = st.stopped
		}
		f.mu.Unlock()
		eh.PendingTasks = gaugeAny(s, "pending_tasks", "ws_pending_tasks")
		eh.TotalWorkers = gaugeAny(s, "total_workers", "ws_total_workers")
		eh.FreeWorkers = gaugeAny(s, "free_workers", "ws_free_workers")
		if eh.TotalWorkers > 0 {
			eh.WorkerUtilization = float64(eh.TotalWorkers-eh.FreeWorkers) / float64(eh.TotalWorkers)
		}
		for _, name := range []string{"egress_backlog", "ws_egress_backlog"} {
			if v, ok := s.GaugeValue(name); ok {
				b := v
				eh.EgressBacklog = &b
				break
			}
		}
		if rate, ok := f.ServiceRate(id); ok {
			eh.ServiceRatePerS = rate
		}
		eh.TasksReceived = s.Counters["tasks_received"]
		eh.ResultsPublished = s.Counters["results_published"]
		f.mu.Lock()
		if st := f.eps[id]; st != nil && !st.lastLoadAt.IsZero() {
			// Load-report-only endpoints (sim agents, thin agents) have no
			// metrics snapshot; their heartbeat counters are authoritative.
			if eh.TasksReceived == 0 {
				eh.TasksReceived = st.lastReceived
			}
			if eh.ResultsPublished == 0 {
				eh.ResultsPublished = st.lastPublished
			}
		}
		f.mu.Unlock()
		eh.Routed = s.Counters["ws_routed"]
		eh.DeadLettered = counterAny(s, "dead_lettered", "engine_deadlettered_tasks")
		eh.Requeued = counterAny(s, "engine_requeued")
		if d, span, ok := f.CounterDelta(id, "dead_lettered", DefaultHealthWindow, now); ok && span > 0 {
			eh.DeadLetterPerMin = float64(d) / span.Minutes()
		}
		if d, span, ok := f.CounterDelta(id, "engine_requeued", DefaultHealthWindow, now); ok && span > 0 {
			eh.RequeuePerMin = float64(d) / span.Minutes()
		}
		if done, _, ok := f.CounterDelta(id, "ws_results", DefaultHealthWindow, now); ok && done > 0 {
			failed, _, _ := f.CounterDelta(id, "ws_results_failed", DefaultHealthWindow, now)
			eh.FailureRatio = float64(failed) / float64(done)
		}
		if hs, ok := s.HistogramValue("ws_task_roundtrip"); ok {
			eh.P99LatencySeconds = hs.P99.Seconds()
		}
		h.Endpoints = append(h.Endpoints, eh)
		h.EndpointsTotal++
		if eh.Online {
			h.EndpointsOnline++
		}
	}
	var routedTotal int64
	for i := range h.Endpoints {
		routedTotal += h.Endpoints[i].Routed
	}
	if routedTotal > 0 {
		for i := range h.Endpoints {
			h.Endpoints[i].RoutedShare = float64(h.Endpoints[i].Routed) / float64(routedTotal)
		}
	}
	return h
}

// escapeLabelValue escapes a Prometheus label value.
func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// fedFamily gathers one exported family's samples across endpoints, so each
// `# TYPE` header appears exactly once regardless of endpoint count.
type fedFamily struct {
	kind    string // "counter" | "gauge" | "summary"
	samples []metrics.Sample
}

// WriteFederation renders every endpoint's merged snapshot in the Prometheus
// federation style: one family per metric, samples labeled by endpoint_id.
// Synthetic per-endpoint `up` and `staleness_seconds` gauges make liveness
// scrapeable without a separate endpoint.
func (f *FleetStore) WriteFederation(w io.Writer, now time.Time) error {
	fams := make(map[string]*fedFamily)
	add := func(name, kind string, s metrics.Sample) {
		name = metrics.FamilyName(DefaultFleetPrefix, name, kind)
		fam, ok := fams[name]
		if !ok {
			fam = &fedFamily{kind: kind}
			fams[name] = fam
		}
		fam.samples = append(fam.samples, s)
	}

	for _, id := range f.Endpoints() {
		s, ok := f.Merged(id)
		if !ok {
			continue
		}
		labels := `endpoint_id="` + escapeLabelValue(id) + `"`
		for name, v := range s.Counters {
			add(name, "counter", metrics.Sample{Labels: labels, Value: v})
		}
		for name, v := range s.Gauges {
			add(name, "gauge", metrics.Sample{Labels: labels, Value: v})
		}
		for name, hs := range s.Histograms {
			add(name, "summary", metrics.Sample{Labels: labels, Hist: hs})
		}
		var up int64
		var staleSec float64
		if stale, ok := f.Staleness(id, now); ok {
			staleSec = stale.Seconds()
			if stale <= f.cfg.StaleAfter {
				up = 1
			}
		}
		add("up", "gauge", metrics.Sample{Labels: labels, Value: up})
		add("staleness_seconds", "gauge", metrics.Sample{Labels: labels, Value: int64(staleSec)})
		if rate, ok := f.ServiceRate(id); ok {
			add("service_rate_tasks_per_second", "gauge", metrics.Sample{Labels: labels, Real: true, Float: rate})
		}
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := metrics.WriteFamily(w, name, fams[name].kind, fams[name].samples...); err != nil {
			return err
		}
	}
	return nil
}
