package core_test

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/core"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
	"globuscompute/internal/trace"
)

// TestEndToEndTrace is the tracing acceptance test: one SDK submission on
// the full testbed must leave a single trace whose spans cover the entire
// lifecycle — SDK submit, service ingestion, broker delivery, endpoint
// dispatch, engine execution, and result return — with intact parent links
// from every span back to the root.
func TestEndToEndTrace(t *testing.T) {
	s := newStack(t)
	epID, err := s.tb.StartEndpoint(core.EndpointOptions{
		Name: "trace-ep", Owner: "alice@uchicago.edu", Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: s.client, EndpointID: epID, Conn: s.conn, Objects: s.objs,
		Tracer: trace.NewTracer("sdk", s.tb.Traces),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Raw(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != protocol.StateSuccess {
		t.Fatalf("task state = %s (%s)", res.State, res.Error)
	}
	if !res.Trace.Valid() {
		t.Fatal("result carries no trace context")
	}
	id := res.Trace.TraceID

	// The final sdk.resolve span ends just after the future resolves; wait
	// for it to land before reading the collector.
	want := map[string]bool{
		"sdk.submit":        false, // SDK-side submission (root)
		"submit":            false, // web service ingestion
		"broker.deliver":    false, // queue transit (tasks and results)
		"endpoint.dispatch": false, // agent pulls and dispatches
		"engine.execute":    false, // worker execution
		"result.process":    false, // result pipeline
		"sdk.resolve":       false, // future resolution
	}
	var spans []trace.Span
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans = s.tb.Traces.Trace(id)
		have := make(map[string]bool, len(spans))
		for _, sp := range spans {
			have[sp.Name] = true
		}
		all := true
		for name := range want {
			if !have[name] {
				all = false
			}
		}
		if all || time.Now().After(deadline) {
			for name := range want {
				want[name] = have[name]
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for name, ok := range want {
		if !ok {
			t.Errorf("trace %s missing span %q (have %d spans)", id, name, len(spans))
		}
	}
	if t.Failed() {
		for _, sp := range spans {
			t.Logf("span %-20s %-12s parent=%s", sp.Name, sp.Process, sp.Parent)
		}
		t.FailNow()
	}

	// Every span must belong to the one trace, be finished, and (except the
	// root) link to another span in the same trace.
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	roots := 0
	for _, sp := range spans {
		if sp.TraceID != id {
			t.Errorf("span %s has trace %s", sp.Name, sp.TraceID)
		}
		if sp.EndTime.IsZero() {
			t.Errorf("span %s never ended", sp.Name)
		}
		byID[sp.SpanID] = sp
		if sp.Parent.IsZero() {
			roots++
			if sp.Name != "sdk.submit" {
				t.Errorf("root span is %q, want sdk.submit", sp.Name)
			}
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans, want 1", roots)
	}
	for _, sp := range spans {
		if sp.Parent.IsZero() {
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Errorf("span %s (%s) has dangling parent %s", sp.Name, sp.Process, sp.Parent)
		}
	}

	// The analyzer must walk a critical path from the root through the
	// lifecycle to a leaf, with bounded unattributed time.
	sum, err := trace.Analyze(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.CriticalPath) < 4 {
		t.Errorf("critical path has %d stages:\n%s", len(sum.CriticalPath), sum.String())
	}
	if sum.CriticalPath[0].Name != "sdk.submit" {
		t.Errorf("critical path starts at %q", sum.CriticalPath[0].Name)
	}
	if sum.Unattributed < 0 || sum.Unattributed > sum.Duration {
		t.Errorf("unattributed %v out of [0, %v]", sum.Unattributed, sum.Duration)
	}

	// The whole span set: every span's process, name, parent, attributes
	// and status, with the task's, the endpoint's and other IDs written as
	// $task, $ep and $uuid. The SDK resolves a future under the group
	// stream's delivery, or under result.process when the result raced
	// ahead of the submit response (the orphan path); both are the shape.
	wantShape := []string{
		`broker/broker.deliver <- engine/engine.execute [queue=results.$ep] status=""`,
		`broker/broker.deliver <- webservice/result.process [queue=results.group.$uuid] status=""`,
		`broker/broker.deliver <- webservice/submit [queue=tasks.$ep] status=""`,
		`endpoint/endpoint.dispatch <- broker/broker.deliver [endpoint=$ep] status=""`,
		`engine/engine.execute <- endpoint/endpoint.dispatch [block=local-1 worker=mgr-1-w$n] status=""`,
		`engine/engine.queue <- endpoint/endpoint.dispatch [] status=""`,
		`sdk/sdk.resolve <- $resolveParent [task=$task] status=""`,
		`sdk/sdk.submit <- - [endpoint=$ep] status=""`,
		`webservice/result.process <- broker/broker.deliver [task=$task] status=""`,
		`webservice/submit <- sdk/sdk.submit [endpoint=$ep] status=""`,
	}
	for deadline := time.Now().Add(5 * time.Second); len(spans) < len(wantShape) && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		spans = s.tb.Traces.Trace(id)
	}
	got := traceShape(spans, string(res.TaskID), string(epID))
	if strings.Join(got, "\n") != strings.Join(wantShape, "\n") {
		t.Errorf("span set\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(wantShape, "\n     "))
	}
}

var (
	shapeUUID   = regexp.MustCompile(`[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}`)
	shapeWorker = regexp.MustCompile(`worker=mgr-1-w[0-9]+`)
)

// traceShape renders one line per span — process/name, its parent's
// process/name, sorted attributes, status — sorted, IDs replaced by names.
func traceShape(spans []trace.Span, task, ep string) []string {
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	var lines []string
	for _, sp := range spans {
		parent := "-"
		if p, ok := byID[sp.Parent]; ok {
			parent = p.Process + "/" + p.Name
		}
		if sp.Name == "sdk.resolve" && (parent == "webservice/result.process" || parent == "broker/broker.deliver") {
			parent = "$resolveParent"
		}
		var attrs []string
		for k, v := range sp.Attrs {
			v = strings.ReplaceAll(strings.ReplaceAll(v, task, "$task"), ep, "$ep")
			attrs = append(attrs, k+"="+shapeUUID.ReplaceAllString(v, "$$uuid"))
		}
		sort.Strings(attrs)
		line := fmt.Sprintf("%s/%s <- %s [%s] status=%q", sp.Process, sp.Name, parent, strings.Join(attrs, " "), sp.Status)
		lines = append(lines, shapeWorker.ReplaceAllString(line, "worker=mgr-1-w$$n"))
	}
	sort.Strings(lines)
	return lines
}
