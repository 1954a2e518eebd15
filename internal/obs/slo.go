package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"globuscompute/internal/metrics"
)

// AlertState is an alert's position in the inactive → pending → firing
// lifecycle.
type AlertState string

const (
	StateInactive AlertState = "inactive"
	StatePending  AlertState = "pending"
	StateFiring   AlertState = "firing"
)

// RuleKind selects a rule's evaluation strategy.
type RuleKind string

const (
	// RuleFailureRatio is a multi-window burn-rate rule over a bad/total
	// counter pair: burn = (bad/total)/Objective per window; firing needs
	// both the fast and slow windows burning, pending needs only the fast
	// one. The slow window filters blips, the fast window bounds detection
	// and recovery latency — the standard SRE-workbook construction.
	RuleFailureRatio RuleKind = "failure_ratio"
	// RuleLatencyP99 breaches when a histogram's p99 exceeds MaxP99: pending
	// on the latest sample, firing when the breach spans the fast window.
	RuleLatencyP99 RuleKind = "latency_p99"
	// RuleGaugeMax breaches when a gauge exceeds Max, with the same
	// pending/firing escalation as RuleLatencyP99.
	RuleGaugeMax RuleKind = "gauge_max"
	// RuleStaleness breaches when an endpoint stops reporting: pending past
	// MaxStaleness, firing past twice MaxStaleness.
	RuleStaleness RuleKind = "staleness"
)

// Rule is one declarative SLO. Only the fields for its Kind are read.
type Rule struct {
	Name string   `json:"name"`
	Kind RuleKind `json:"kind"`

	// Failure-ratio fields.
	BadCounter   string  `json:"bad_counter,omitempty"`
	TotalCounter string  `json:"total_counter,omitempty"`
	Objective    float64 `json:"objective,omitempty"` // tolerated bad/total ratio
	BurnRate     float64 `json:"burn_rate,omitempty"` // firing multiple of Objective

	// Latency fields.
	Histogram string        `json:"histogram,omitempty"`
	MaxP99    time.Duration `json:"max_p99,omitempty"`

	// Gauge fields.
	Gauge string `json:"gauge,omitempty"`
	Max   int64  `json:"max,omitempty"`

	// Staleness field.
	MaxStaleness time.Duration `json:"max_staleness,omitempty"`

	// Evaluation windows (failure ratio, latency, gauge).
	FastWindow time.Duration `json:"fast_window,omitempty"`
	SlowWindow time.Duration `json:"slow_window,omitempty"`
}

// DefaultRules returns the stock fleet SLOs: task round-trip p99, terminal
// failure rate, egress backlog, and heartbeat staleness. Callers scale the
// windows to their deployment (the smoke harness runs them at millisecond
// scale).
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "task_p99_latency", Kind: RuleLatencyP99,
			Histogram: "ws_task_roundtrip", MaxP99: 5 * time.Second,
			FastWindow: time.Minute, SlowWindow: 5 * time.Minute,
		},
		{
			Name: "terminal_failure_rate", Kind: RuleFailureRatio,
			BadCounter: "ws_results_failed", TotalCounter: "ws_results",
			Objective: 0.05, BurnRate: 2,
			FastWindow: time.Minute, SlowWindow: 5 * time.Minute,
		},
		{
			// Shed ratio per endpoint: the service counts every submit
			// attempt targeting an endpoint and every shed (queue depth or
			// egress-backlog pressure) against it. Sustained shedding above
			// 10% of offered load means the endpoint is saturated, not
			// blipping.
			Name: "shed_ratio", Kind: RuleFailureRatio,
			BadCounter: "ws_sheds", TotalCounter: "ws_submit_attempts",
			Objective: 0.10, BurnRate: 2,
			FastWindow: time.Minute, SlowWindow: 5 * time.Minute,
		},
		{
			Name: "egress_backlog", Kind: RuleGaugeMax,
			Gauge: "egress_backlog", Max: 1000,
			FastWindow: time.Minute, SlowWindow: 5 * time.Minute,
		},
		{
			Name: "heartbeat_staleness", Kind: RuleStaleness,
			MaxStaleness: 30 * time.Second,
		},
	}
}

// Alert is one rule's live status for one endpoint.
type Alert struct {
	Rule       string     `json:"rule"`
	EndpointID string     `json:"endpoint_id"`
	State      AlertState `json:"state"`
	Since      time.Time  `json:"since"`
	Value      float64    `json:"value"`
	Threshold  float64    `json:"threshold"`
	Message    string     `json:"message,omitempty"`
}

// SLOEngine evaluates declarative rules against a FleetStore's ring buffers
// and maintains per-(rule, endpoint) alert state machines.
type SLOEngine struct {
	store *FleetStore

	mu       sync.Mutex
	rules    []Rule
	alerts   map[string]*Alert
	registry *metrics.Registry
	log      *Logger
}

// NewSLOEngine builds an engine over store with the given rules (nil selects
// DefaultRules).
func NewSLOEngine(store *FleetStore, rules []Rule) *SLOEngine {
	if rules == nil {
		rules = DefaultRules()
	}
	return &SLOEngine{
		store:  store,
		rules:  rules,
		alerts: make(map[string]*Alert),
		log:    Component("slo"),
	}
}

// SetRegistry makes the engine export aggregate alert gauges
// (slo_alerts_pending, slo_alerts_firing) and a transition counter
// (slo_alert_transitions) into r on every Evaluate.
func (e *SLOEngine) SetRegistry(r *metrics.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.registry = r
}

// Rules returns the configured rules.
func (e *SLOEngine) Rules() []Rule {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Rule(nil), e.rules...)
}

// Alerts returns every non-inactive alert, sorted by rule then endpoint.
func (e *SLOEngine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.alerts))
	for _, a := range e.alerts {
		if a.State != StateInactive {
			out = append(out, *a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].EndpointID < out[j].EndpointID
	})
	return out
}

// Evaluate runs every rule against every tracked endpoint, advancing alert
// state machines, notifying on transitions, and refreshing exported gauges.
// It returns the current non-inactive alerts.
func (e *SLOEngine) Evaluate(now time.Time) []Alert {
	ids := e.store.Endpoints()

	e.mu.Lock()
	rules := append([]Rule(nil), e.rules...)
	e.mu.Unlock()

	type verdict struct {
		key              string
		rule             Rule
		id               string
		state            AlertState
		value, threshold float64
		msg              string
	}
	var verdicts []verdict
	for _, r := range rules {
		for _, id := range ids {
			st, val, thr, msg := e.evalRule(r, id, now)
			verdicts = append(verdicts, verdict{
				key: r.Name + "|" + id, rule: r, id: id,
				state: st, value: val, threshold: thr, msg: msg,
			})
		}
	}

	e.mu.Lock()
	var transitions []Alert
	pending, firing := 0, 0
	for _, v := range verdicts {
		a, ok := e.alerts[v.key]
		if !ok {
			a = &Alert{Rule: v.rule.Name, EndpointID: v.id, State: StateInactive, Since: now}
			e.alerts[v.key] = a
		}
		a.Value, a.Threshold, a.Message = v.value, v.threshold, v.msg
		if a.State != v.state {
			a.State = v.state
			a.Since = now
			transitions = append(transitions, *a)
		}
		switch a.State {
		case StatePending:
			pending++
		case StateFiring:
			firing++
		}
	}
	reg := e.registry
	e.mu.Unlock()

	if reg != nil {
		reg.Gauge("slo_alerts_pending").Set(int64(pending))
		reg.Gauge("slo_alerts_firing").Set(int64(firing))
		reg.Counter("slo_alert_transitions").Add(int64(len(transitions)))
	}
	for _, a := range transitions {
		lg := e.log.WithEndpoint(a.EndpointID)
		switch a.State {
		case StateFiring:
			lg.Error("slo alert firing", "rule", a.Rule, "value", a.Value, "threshold", a.Threshold, "detail", a.Message)
		case StatePending:
			lg.Warn("slo alert pending", "rule", a.Rule, "value", a.Value, "threshold", a.Threshold, "detail", a.Message)
		default:
			lg.Info("slo alert resolved", "rule", a.Rule)
		}
	}
	return e.Alerts()
}

// evalRule computes one rule's state for one endpoint.
func (e *SLOEngine) evalRule(r Rule, id string, now time.Time) (AlertState, float64, float64, string) {
	switch r.Kind {
	case RuleFailureRatio:
		return e.evalFailureRatio(r, id, now)
	case RuleLatencyP99:
		breach := func(s metrics.Snapshot) (float64, bool) {
			hs, ok := s.HistogramValue(r.Histogram)
			if !ok || hs.Count == 0 {
				return 0, false
			}
			return hs.P99.Seconds(), hs.P99 > r.MaxP99
		}
		return e.evalSustained(r, id, now, breach, r.MaxP99.Seconds(), "p99 latency over objective")
	case RuleGaugeMax:
		breach := func(s metrics.Snapshot) (float64, bool) {
			v, ok := s.GaugeValue(r.Gauge)
			if !ok {
				return 0, false
			}
			return float64(v), v > r.Max
		}
		return e.evalSustained(r, id, now, breach, float64(r.Max), "gauge over objective")
	case RuleStaleness:
		stale, ok := e.store.Staleness(id, now)
		if !ok {
			return StateInactive, 0, r.MaxStaleness.Seconds(), ""
		}
		switch {
		case stale > 2*r.MaxStaleness:
			return StateFiring, stale.Seconds(), r.MaxStaleness.Seconds(), "endpoint stopped reporting"
		case stale > r.MaxStaleness:
			return StatePending, stale.Seconds(), r.MaxStaleness.Seconds(), "heartbeats late"
		}
		return StateInactive, stale.Seconds(), r.MaxStaleness.Seconds(), ""
	}
	return StateInactive, 0, 0, ""
}

// evalFailureRatio implements the two-window burn-rate check.
func (e *SLOEngine) evalFailureRatio(r Rule, id string, now time.Time) (AlertState, float64, float64, string) {
	burn := func(w time.Duration) (rate float64, covered, ok bool) {
		bad, span, ok := e.store.CounterDelta(id, r.BadCounter, w, now)
		if !ok {
			return 0, false, false
		}
		total, _, _ := e.store.CounterDelta(id, r.TotalCounter, w, now)
		if total <= 0 {
			return 0, false, false
		}
		// A window is only trustworthy once the ring actually spans most of
		// it; otherwise a cold-start spike would satisfy the slow window with
		// seconds of history and fire without sustained evidence.
		return (float64(bad) / float64(total)) / r.Objective, span >= w/2, true
	}
	fast, _, okFast := burn(r.FastWindow)
	if !okFast {
		return StateInactive, 0, r.BurnRate, ""
	}
	slow, slowCovered, okSlow := burn(r.SlowWindow)
	okSlow = okSlow && slowCovered
	msg := fmt.Sprintf("error budget burning at %.1fx (fast) / %.1fx (slow)", fast, slow)
	switch {
	case fast >= r.BurnRate && okSlow && slow >= r.BurnRate:
		return StateFiring, fast, r.BurnRate, msg
	case fast >= r.BurnRate:
		return StatePending, fast, r.BurnRate, msg
	}
	return StateInactive, fast, r.BurnRate, ""
}

// evalSustained grades point-in-time breach rules: the newest sample
// breaching makes the alert pending; every sample across the fast window
// breaching makes it firing.
func (e *SLOEngine) evalSustained(r Rule, id string, now time.Time, breach func(metrics.Snapshot) (float64, bool), threshold float64, msg string) (AlertState, float64, float64, string) {
	pts := e.store.Points(id)
	if len(pts) == 0 {
		return StateInactive, 0, threshold, ""
	}
	latest := pts[len(pts)-1]
	val, bad := breach(latest.Snap)
	if !bad {
		return StateInactive, val, threshold, ""
	}
	cutoff := now.Add(-r.FastWindow)
	sustained := false
	for i := len(pts) - 1; i >= 0; i-- {
		p := pts[i]
		if p.Time.Before(cutoff) {
			break
		}
		if _, b := breach(p.Snap); !b {
			return StatePending, val, threshold, msg
		}
		// Firing needs the breach to actually span the window, not just the
		// few most recent samples.
		if i < len(pts)-1 && now.Sub(p.Time) >= r.FastWindow/2 {
			sustained = true
		}
	}
	if sustained {
		return StateFiring, val, threshold, msg
	}
	return StatePending, val, threshold, msg
}

// Start runs the evaluation loop: every interval the store samples a tick and
// the rules re-evaluate. The returned stop function blocks until the loop
// exits.
func (e *SLOEngine) Start(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				e.store.Tick(now)
				e.Evaluate(now)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
