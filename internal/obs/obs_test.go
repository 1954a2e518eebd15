package obs

import (
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/metrics"
	"globuscompute/internal/statestore"
	"globuscompute/internal/trace"
)

func testPipeline(cap int) *Pipeline {
	return NewPipeline(PipelineConfig{Buffer: NewLogBuffer(cap)})
}

func TestLoggerCorrelationFields(t *testing.T) {
	p := testPipeline(16)
	tc := trace.Context{TraceID: trace.NewTraceID()}
	lg := p.Component("webservice").WithEndpoint("ep-1").WithTask("task-9").WithTrace(tc)
	lg.Info("result stored", "attempt", 2)

	recs := p.Buffer().Search(Query{TraceID: tc.TraceID.String()})
	if len(recs) != 1 {
		t.Fatalf("trace search = %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Component != "webservice" || r.Endpoint != "ep-1" || r.TaskID != "task-9" {
		t.Errorf("correlation fields not extracted: %+v", r)
	}
	if r.Attrs["attempt"] != "2" {
		t.Errorf("ad-hoc attr lost: %+v", r.Attrs)
	}
	if r.Message != "result stored" || r.Level != "INFO" {
		t.Errorf("record body: %+v", r)
	}

	// Invalid trace contexts attach nothing, and a nil logger is usable.
	var nilLogger *Logger
	nilLogger.WithTrace(trace.Context{}).Debug("no trace")
	if got := p.Buffer().Search(Query{TraceID: ""}); len(got) == 0 {
		t.Fatal("buffer lost records")
	}
}

func TestLogBufferRingAndQueries(t *testing.T) {
	b := NewLogBuffer(4)
	for i := 0; i < 6; i++ {
		lvl := "INFO"
		if i%2 == 0 {
			lvl = "ERROR"
		}
		b.Append(LogRecord{Message: string(rune('a' + i)), Level: lvl, Endpoint: "ep"})
	}
	if b.Len() != 4 || b.Total() != 6 {
		t.Fatalf("Len=%d Total=%d, want 4/6", b.Len(), b.Total())
	}
	tail := b.Search(Query{Limit: 2})
	if len(tail) != 2 || tail[1].Message != "f" {
		t.Fatalf("limited search order wrong: %+v", tail)
	}
	errs := b.Search(Query{MinLevel: slog.LevelError, Endpoint: "ep"})
	for _, r := range errs {
		if r.Level != "ERROR" {
			t.Fatalf("level filter leaked %+v", r)
		}
	}
	if len(errs) != 2 { // c was evicted; e and... indices 0,2,4 are ERROR; 0 ("a") and 2 ("c") evicted -> "e" only? ring keeps 2..5
		// ring retains messages c,d,e,f => errors are c (idx2) and e (idx4).
		t.Fatalf("error records = %d, want 2: %+v", len(errs), errs)
	}
}

func TestFleetIngestAndWindows(t *testing.T) {
	f := NewFleetStore(FleetConfig{StaleAfter: time.Second})
	base := time.Unix(1000, 0)

	// First delta is a full snapshot; later deltas elide unchanged series.
	s1 := metrics.Snapshot{Counters: map[string]int64{"tasks_received": 10, "dead_lettered": 0}, Gauges: map[string]int64{"egress_backlog": 3}}
	if !f.Ingest("ep-1", s1, base) {
		t.Fatal("ingest rejected")
	}
	s2 := metrics.Snapshot{Counters: map[string]int64{"tasks_received": 50}}
	f.Ingest("ep-1", s2, base.Add(10*time.Second))

	merged, ok := f.Merged("ep-1")
	if !ok || merged.Counters["tasks_received"] != 50 {
		t.Fatalf("overlay failed: %+v", merged.Counters)
	}
	if merged.Gauges["egress_backlog"] != 3 {
		t.Error("unchanged gauge lost across delta overlay")
	}

	d, span, ok := f.CounterDelta("ep-1", "tasks_received", time.Minute, base.Add(10*time.Second))
	if !ok || d != 40 || span != 10*time.Second {
		t.Fatalf("CounterDelta = %d over %v (%v), want 40 over 10s", d, span, ok)
	}

	// Counter reset (agent restart) counts from zero instead of negative.
	f.Ingest("ep-1", metrics.Snapshot{Counters: map[string]int64{"tasks_received": 5}}, base.Add(20*time.Second))
	d, _, _ = f.CounterDelta("ep-1", "tasks_received", time.Minute, base.Add(20*time.Second))
	if d != 5 {
		t.Fatalf("reset delta = %d, want 5", d)
	}

	if stale, ok := f.Staleness("ep-1", base.Add(25*time.Second)); !ok || stale != 5*time.Second {
		t.Fatalf("staleness = %v (%v)", stale, ok)
	}
}

func TestFleetLocalRegistryAndHealth(t *testing.T) {
	f := NewFleetStore(FleetConfig{StaleAfter: time.Minute})
	base := time.Unix(2000, 0)

	// Agent-side load gauges arrive via snapshot; webservice-side outcomes
	// land in the local registry and merge under ws_.
	f.Ingest("ep-1", metrics.Snapshot{
		Counters: map[string]int64{"tasks_received": 100, "results_published": 90, "dead_lettered": 2},
		Gauges:   map[string]int64{"pending_tasks": 4, "total_workers": 8, "free_workers": 2, "egress_backlog": 0},
	}, base)
	loc := f.Local("ep-1")
	loc.Counter("results").Add(90)
	loc.Counter("results_failed").Add(9)
	loc.Histogram("task_roundtrip").Observe(50 * time.Millisecond)
	f.Tick(base.Add(30 * time.Second))

	h := f.Health(base.Add(31 * time.Second))
	if h.EndpointsTotal != 1 || h.EndpointsOnline != 1 {
		t.Fatalf("health totals: %+v", h)
	}
	eh := h.Endpoints[0]
	if eh.WorkerUtilization != 0.75 {
		t.Errorf("utilization = %v, want 0.75", eh.WorkerUtilization)
	}
	if eh.EgressBacklog == nil || *eh.EgressBacklog != 0 {
		t.Errorf("reported zero backlog must be present-and-zero, got %v", eh.EgressBacklog)
	}
	if eh.FailureRatio != 0.1 {
		t.Errorf("failure ratio = %v, want 0.1", eh.FailureRatio)
	}
	if eh.DeadLettered != 2 || eh.P99LatencySeconds != 0.05 {
		t.Errorf("health row: %+v", eh)
	}

	// An endpoint that never reported the backlog gauge yields nil.
	f.Ingest("ep-2", metrics.Snapshot{Counters: map[string]int64{"tasks_received": 1}}, base)
	h = f.Health(base.Add(31 * time.Second))
	for _, row := range h.Endpoints {
		if row.EndpointID == "ep-2" && row.EgressBacklog != nil {
			t.Error("unreported backlog should be nil")
		}
	}
}

func TestFleetEndpointCap(t *testing.T) {
	f := NewFleetStore(FleetConfig{})
	now := time.Unix(3000, 0)
	for i := 0; i < DefaultMaxEndpoints; i++ {
		f.Touch(fmt.Sprintf("ep-%d", i), now)
	}
	if f.Ingest("one-more", metrics.Snapshot{}, now) {
		t.Fatal("cap should reject the endpoint past it")
	}
	if f.Rejected() != 1 || len(f.Endpoints()) != DefaultMaxEndpoints {
		t.Fatalf("rejected=%d endpoints=%v", f.Rejected(), f.Endpoints())
	}
}

func TestWriteFederationParsesCleanly(t *testing.T) {
	f := NewFleetStore(FleetConfig{StaleAfter: time.Minute})
	now := time.Unix(4000, 0)
	for _, id := range []string{"ep-1", "ep-2"} {
		f.Ingest(id, metrics.Snapshot{
			Counters:   map[string]int64{"tasks_received": 5},
			Gauges:     map[string]int64{"egress_backlog": 1},
			Histograms: map[string]metrics.HistogramStats{"egress_flush_size": {Count: 3, Sum: 6 * time.Second, P50: 2 * time.Second, P95: 2 * time.Second, P99: 2 * time.Second}},
		}, now)
	}
	loc := f.Local("ep-1")
	loc.Histogram("task_roundtrip").Observe(time.Millisecond)
	f.Tick(now)

	var sb strings.Builder
	if err := f.WriteFederation(&sb, now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("federation output does not parse: %v\n%s", err, sb.String())
	}
	if issues := exp.Lint(); len(issues) != 0 {
		t.Fatalf("federation output fails lint: %v", issues)
	}

	// Counters gain _total; both endpoints appear as labeled samples of one
	// family (one TYPE header, verified by ParseExposition's duplicate check).
	fam := exp.Family("gc_endpoint_tasks_received_total")
	if fam == nil || fam.Type != "counter" || len(fam.Samples) != 2 {
		t.Fatalf("tasks_received family: %+v", fam)
	}
	if s, ok := exp.Sample("gc_endpoint_up", map[string]string{"endpoint_id": "ep-1"}); !ok || s.Value != 1 {
		t.Fatalf("up{ep-1} = %+v (%v)", s, ok)
	}
	// Unit histograms keep their unit name; duration histograms gain _seconds.
	if exp.Family("gc_endpoint_egress_flush_size") == nil {
		t.Error("size histogram should export under its unit name")
	}
	if exp.Family("gc_endpoint_ws_task_roundtrip_seconds") == nil {
		t.Error("duration histogram should export with _seconds")
	}
}

// TestWriteFederationEscapesLabelOnce federates an endpoint whose ID holds a
// quote and a backslash: the label reads back unchanged.
func TestWriteFederationEscapesLabelOnce(t *testing.T) {
	f := NewFleetStore(FleetConfig{})
	now := time.Unix(4000, 0)
	id := `ep"1\x`
	f.Ingest(id, metrics.Snapshot{Counters: map[string]int64{"tasks_received": 3}}, now)
	var sb strings.Builder
	if err := f.WriteFederation(&sb, now); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("federation output does not parse: %v\n%s", err, sb.String())
	}
	if s, ok := exp.Sample("gc_endpoint_tasks_received_total", map[string]string{"endpoint_id": id}); !ok || s.Value != 3 {
		t.Fatalf("tasks_received{endpoint_id=%q} = %+v (%v) in\n%s", id, s, ok, sb.String())
	}
}

// TestWriteFederationGolden pins /metrics/fleet byte for byte over two
// endpoints, one of them stale: families sorted by name, one TYPE header
// each, samples labelled by endpoint, the float service-rate gauge, and
// summaries with the endpoint label ahead of the quantile.
func TestWriteFederationGolden(t *testing.T) {
	f := NewFleetStore(FleetConfig{StaleAfter: time.Minute})
	now := time.Unix(4000, 0)
	f.Ingest("ep-1", metrics.Snapshot{
		Counters: map[string]int64{"tasks_received": 5, "results_published": 4},
		Gauges:   map[string]int64{"egress_backlog": 1},
		Histograms: map[string]metrics.HistogramStats{
			"egress_flush_size": {Count: 3, Sum: 6 * time.Second, P50: 2 * time.Second, P95: 2 * time.Second, P99: 2 * time.Second},
			"task_exec":         {Count: 2, Sum: 30 * time.Millisecond, P50: 10 * time.Millisecond, P95: 20 * time.Millisecond, P99: 20 * time.Millisecond},
		},
	}, now)
	f.Ingest("ep-2", metrics.Snapshot{Counters: map[string]int64{"tasks_received": 7}}, now.Add(-2*time.Minute))
	f.ObserveLoad("ep-1", statestore.EndpointLoad{ResultsPublished: 0}, now.Add(-3*time.Second))
	f.ObserveLoad("ep-1", statestore.EndpointLoad{ResultsPublished: 100}, now)
	loc := f.Local("ep-1")
	loc.Histogram("task_roundtrip").Observe(time.Millisecond)
	loc.Counter("results_failed").Add(2)
	f.Tick(now)
	var sb strings.Builder
	if err := f.WriteFederation(&sb, now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE gc_endpoint_egress_backlog gauge
gc_endpoint_egress_backlog{endpoint_id="ep-1"} 1
# TYPE gc_endpoint_egress_flush_size summary
gc_endpoint_egress_flush_size{endpoint_id="ep-1",quantile="0.5"} 2
gc_endpoint_egress_flush_size{endpoint_id="ep-1",quantile="0.95"} 2
gc_endpoint_egress_flush_size{endpoint_id="ep-1",quantile="0.99"} 2
gc_endpoint_egress_flush_size_sum{endpoint_id="ep-1"} 6
gc_endpoint_egress_flush_size_count{endpoint_id="ep-1"} 3
# TYPE gc_endpoint_results_published_total counter
gc_endpoint_results_published_total{endpoint_id="ep-1"} 4
# TYPE gc_endpoint_service_rate_tasks_per_second gauge
gc_endpoint_service_rate_tasks_per_second{endpoint_id="ep-1"} 33.333333333333336
# TYPE gc_endpoint_staleness_seconds gauge
gc_endpoint_staleness_seconds{endpoint_id="ep-1"} 1
gc_endpoint_staleness_seconds{endpoint_id="ep-2"} 121
# TYPE gc_endpoint_task_exec_seconds summary
gc_endpoint_task_exec_seconds{endpoint_id="ep-1",quantile="0.5"} 0.01
gc_endpoint_task_exec_seconds{endpoint_id="ep-1",quantile="0.95"} 0.02
gc_endpoint_task_exec_seconds{endpoint_id="ep-1",quantile="0.99"} 0.02
gc_endpoint_task_exec_seconds_sum{endpoint_id="ep-1"} 0.03
gc_endpoint_task_exec_seconds_count{endpoint_id="ep-1"} 2
# TYPE gc_endpoint_tasks_received_total counter
gc_endpoint_tasks_received_total{endpoint_id="ep-1"} 5
gc_endpoint_tasks_received_total{endpoint_id="ep-2"} 7
# TYPE gc_endpoint_up gauge
gc_endpoint_up{endpoint_id="ep-1"} 1
gc_endpoint_up{endpoint_id="ep-2"} 0
# TYPE gc_endpoint_ws_free_workers gauge
gc_endpoint_ws_free_workers{endpoint_id="ep-1"} 0
# TYPE gc_endpoint_ws_pending_tasks gauge
gc_endpoint_ws_pending_tasks{endpoint_id="ep-1"} 0
# TYPE gc_endpoint_ws_results_failed_total counter
gc_endpoint_ws_results_failed_total{endpoint_id="ep-1"} 2
# TYPE gc_endpoint_ws_task_roundtrip_seconds summary
gc_endpoint_ws_task_roundtrip_seconds{endpoint_id="ep-1",quantile="0.5"} 0.001
gc_endpoint_ws_task_roundtrip_seconds{endpoint_id="ep-1",quantile="0.95"} 0.001
gc_endpoint_ws_task_roundtrip_seconds{endpoint_id="ep-1",quantile="0.99"} 0.001
gc_endpoint_ws_task_roundtrip_seconds_sum{endpoint_id="ep-1"} 0.001
gc_endpoint_ws_task_roundtrip_seconds_count{endpoint_id="ep-1"} 1
# TYPE gc_endpoint_ws_total_workers gauge
gc_endpoint_ws_total_workers{endpoint_id="ep-1"} 0
`
	if sb.String() != want {
		t.Errorf("federation\n got:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestSLOFailureRatioLifecycle(t *testing.T) {
	p := testPipeline(256)
	SetDefault(p)
	f := NewFleetStore(FleetConfig{StaleAfter: time.Hour})
	rules := []Rule{{
		Name: "failures", Kind: RuleFailureRatio,
		BadCounter: "ws_results_failed", TotalCounter: "ws_results",
		Objective: 0.05, BurnRate: 2,
		FastWindow: 10 * time.Second, SlowWindow: 40 * time.Second,
	}}
	e := NewSLOEngine(f, rules)
	reg := metrics.NewRegistry()
	e.SetRegistry(reg)

	loc := f.Local("ep-1")
	base := time.Unix(5000, 0)
	step := func(at time.Duration, good, bad int64) []Alert {
		loc.Counter("results").Add(good + bad)
		loc.Counter("results_failed").Add(bad)
		now := base.Add(at)
		f.Touch("ep-1", now)
		f.Tick(now)
		return e.Evaluate(now)
	}

	// Healthy traffic: inactive.
	step(0, 50, 0)
	if alerts := step(2*time.Second, 50, 0); len(alerts) != 0 {
		t.Fatalf("healthy fleet alerted: %+v", alerts)
	}
	// Failures spike: the fast window breaches first -> pending.
	alerts := step(4*time.Second, 10, 40)
	if len(alerts) != 1 || alerts[0].State != StatePending {
		t.Fatalf("want pending, got %+v", alerts)
	}
	// Sustained failures: slow window catches up -> firing.
	var fired bool
	for at := 6 * time.Second; at <= 60*time.Second; at += 2 * time.Second {
		alerts = step(at, 10, 40)
		if len(alerts) == 1 && alerts[0].State == StateFiring {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatalf("sustained failures never fired: %+v", alerts)
	}
	if reg.Gauge("slo_alerts_firing").Value() != 1 {
		t.Error("firing gauge not exported")
	}

	// Recovery: healthy traffic drains both windows -> inactive again.
	var cleared bool
	for at := 62 * time.Second; at <= 180*time.Second; at += 2 * time.Second {
		if alerts = step(at, 50, 0); len(alerts) == 0 {
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatalf("alert never recovered: %+v", alerts)
	}

	// Transitions logged: pending, firing, then resolve to inactive.
	var states []string
	for _, r := range p.Buffer().Search(Query{Component: "slo"}) {
		states = append(states, r.Message)
	}
	want := []string{"slo alert pending", "slo alert firing", "slo alert resolved"}
	if len(states) < 3 {
		t.Fatalf("transitions = %v, want %v", states, want)
	}
	for i, s := range want {
		if states[i] != s {
			t.Fatalf("transition[%d] = %v, want %v (all: %v)", i, states[i], s, states)
		}
	}
	if reg.Counter("slo_alert_transitions").Value() < 3 {
		t.Error("transition counter not exported")
	}
}

func TestSLOStalenessEscalation(t *testing.T) {
	SetDefault(testPipeline(64))
	f := NewFleetStore(FleetConfig{})
	e := NewSLOEngine(f, []Rule{{Name: "stale", Kind: RuleStaleness, MaxStaleness: 10 * time.Second}})
	base := time.Unix(6000, 0)
	f.Touch("ep-1", base)

	if alerts := e.Evaluate(base.Add(5 * time.Second)); len(alerts) != 0 {
		t.Fatalf("fresh endpoint alerted: %+v", alerts)
	}
	alerts := e.Evaluate(base.Add(15 * time.Second))
	if len(alerts) != 1 || alerts[0].State != StatePending {
		t.Fatalf("late heartbeats: %+v, want pending", alerts)
	}
	alerts = e.Evaluate(base.Add(25 * time.Second))
	if len(alerts) != 1 || alerts[0].State != StateFiring {
		t.Fatalf("stopped endpoint: %+v, want firing", alerts)
	}
	// Endpoint comes back.
	f.Touch("ep-1", base.Add(26*time.Second))
	if alerts = e.Evaluate(base.Add(27 * time.Second)); len(alerts) != 0 {
		t.Fatalf("recovered endpoint still alerting: %+v", alerts)
	}
}

func TestSLOGaugeSustained(t *testing.T) {
	SetDefault(testPipeline(64))
	f := NewFleetStore(FleetConfig{StaleAfter: time.Hour})
	e := NewSLOEngine(f, []Rule{{
		Name: "backlog", Kind: RuleGaugeMax, Gauge: "egress_backlog", Max: 100,
		FastWindow: 10 * time.Second, SlowWindow: 30 * time.Second,
	}})
	base := time.Unix(7000, 0)
	set := func(at time.Duration, v int64) []Alert {
		now := base.Add(at)
		f.Ingest("ep-1", metrics.Snapshot{Gauges: map[string]int64{"egress_backlog": v}}, now)
		return e.Evaluate(now)
	}
	set(0, 10)
	if alerts := set(2*time.Second, 10); len(alerts) != 0 {
		t.Fatalf("healthy backlog alerted: %+v", alerts)
	}
	alerts := set(4*time.Second, 500)
	if len(alerts) != 1 || alerts[0].State != StatePending {
		t.Fatalf("first breach should pend: %+v", alerts)
	}
	for at := 6 * time.Second; at <= 20*time.Second; at += 2 * time.Second {
		alerts = set(at, 500)
	}
	if len(alerts) != 1 || alerts[0].State != StateFiring {
		t.Fatalf("sustained breach should fire: %+v", alerts)
	}
	if alerts = set(22*time.Second, 5); len(alerts) != 0 {
		t.Fatalf("drained backlog should resolve: %+v", alerts)
	}
}

func TestParseExpositionErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"duplicate type", "# TYPE a counter\n# TYPE a counter\n"},
		{"bad metric name", "9bad 1\n"},
		{"bad value", "ok{} x\n"},
		{"unterminated labels", "ok{a=\"b 1\n"},
		{"bad label name", "ok{__a=\"b\"} 1\n"},
	}
	for _, c := range cases {
		if _, err := ParseExposition(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}

	// Escaped label values round-trip.
	exp, err := ParseExposition(strings.NewReader("# TYPE m gauge\nm{ep=\"a\\\"b\\\\c\\nd\"} 2 1234567890\n"))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := exp.Sample("m", nil)
	if !ok || s.Labels["ep"] != "a\"b\\c\nd" || s.Value != 2 {
		t.Fatalf("escape round-trip: %+v (%v)", s, ok)
	}
}

func TestLintFlagsViolations(t *testing.T) {
	in := strings.Join([]string{
		"# TYPE good_total counter", "good_total 1",
		"# TYPE bad counter", "bad 1", // counter without _total
		"# TYPE wrong_total gauge", "wrong_total 1", // gauge stealing _total
		"# TYPE lat summary", "lat_count 0", // summary without unit
		"# TYPE fine_seconds summary", "fine_seconds_count 0",
	}, "\n") + "\n"
	exp, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	issues := exp.Lint()
	if len(issues) != 3 {
		t.Fatalf("lint issues = %v, want 3", issues)
	}
}
