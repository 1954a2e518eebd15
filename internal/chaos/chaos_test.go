package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/engine"
	"globuscompute/internal/protocol"
)

func TestInjectorDeterministic(t *testing.T) {
	a, b := NewInjector(42), NewInjector(42)
	for i := 0; i < 1000; i++ {
		if a.Decide("x", 0.3) != b.Decide("x", 0.3) {
			t.Fatalf("decision %d diverged across same-seed injectors", i)
		}
	}
	if a.Fired("x") != b.Fired("x") {
		t.Errorf("fired counts diverged: %d vs %d", a.Fired("x"), b.Fired("x"))
	}
	if a.Fired("x") == 0 {
		t.Error("p=0.3 over 1000 draws never fired")
	}
	if a.TotalFired() != a.Fired("x") {
		t.Errorf("TotalFired = %d, Fired(x) = %d", a.TotalFired(), a.Fired("x"))
	}
}

func TestInjectorDisabled(t *testing.T) {
	inj := NewInjector(1)
	inj.SetDisabled(true)
	for i := 0; i < 100; i++ {
		if inj.Decide("x", 1.0) {
			t.Fatal("disabled injector fired")
		}
	}
	inj.SetDisabled(false)
	if !inj.Decide("x", 1.0) {
		t.Error("re-enabled injector did not fire at p=1")
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var inj *Injector
	if inj.Decide("x", 1.0) {
		t.Error("nil injector fired")
	}
	if inj.Fired("x") != 0 || inj.TotalFired() != 0 {
		t.Error("nil injector reported fired faults")
	}
	inj.note("x") // must not panic
}

// TestConnPublishFault checks that the injector is batch-native: a publish of
// N bodies draws one decision and fails or lands as a unit, and an ack of N
// tags reaches the inner subscription as one call.
func TestConnPublishFault(t *testing.T) {
	b := broker.New()
	defer b.Close()
	inj := NewInjector(7)
	batch := [][]byte{[]byte("x"), []byte("y"), []byte("z")}
	conn := WrapConn(broker.LocalConn(b), inj, ConnFaults{PublishFailRate: 1.0})
	if err := conn.Declare("q"); err != nil {
		t.Fatal(err)
	}
	err := conn.PublishBatch("q", batch, nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !errors.Is(err, broker.ErrClosed) {
		t.Error("ErrInjected does not unwrap to broker.ErrClosed (retry layers would misclassify it)")
	}
	if inj.Fired("conn.publish_fail") != 1 {
		t.Errorf("fired = %d, want 1 for one publish call", inj.Fired("conn.publish_fail"))
	}
	if d, _ := b.Depth("q"); d != 0 {
		t.Errorf("%d bodies of a failed batch landed", d)
	}

	conn = WrapConn(broker.LocalConn(b), inj, ConnFaults{})
	if err := conn.PublishBatch("q", batch, nil); err != nil {
		t.Fatal(err)
	}
	sub, err := conn.Subscribe("q", len(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	var tags []uint64
	for range batch {
		select {
		case m := <-sub.Messages():
			tags = append(tags, m.Tag)
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d deliveries", len(tags), len(batch))
		}
	}
	if err := sub.Ack(tags...); err != nil {
		t.Fatal(err)
	}
	if u, _ := b.Unacked("q"); u != 0 {
		t.Errorf("%d deliveries unacked after one Ack of %d tags", u, len(tags))
	}
}

func TestConnDropSeversSubscriptionAndRequeues(t *testing.T) {
	b := broker.New()
	defer b.Close()
	inj := NewInjector(7)
	conn := WrapConn(broker.LocalConn(b), inj, ConnFaults{DropRate: 1.0})
	if err := conn.Declare("q"); err != nil {
		t.Fatal(err)
	}
	if err := conn.PublishBatch("q", [][]byte{[]byte("precious")}, nil); err != nil {
		t.Fatal(err)
	}
	sub, err := conn.Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	// DropRate=1: the stream must close without delivering.
	select {
	case _, ok := <-sub.Messages():
		if ok {
			t.Fatal("delivery arrived despite DropRate=1")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stream never closed")
	}
	// The message requeued broker-side: a clean consumer receives it.
	clean, err := broker.LocalConn(b).Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-clean.Messages():
		if string(m.Body) != "precious" {
			t.Fatalf("message = %q", m.Body)
		}
		if !m.Redelivered {
			t.Error("requeued message not flagged redelivered")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dropped message never requeued")
	}
}

func TestRoundTripperFaults(t *testing.T) {
	req := func() *http.Request {
		r, _ := http.NewRequest("POST", "http://example.invalid/v2/submit",
			strings.NewReader(`{"tasks":[]}`))
		return r
	}

	t.Run("server error", func(t *testing.T) {
		rt := &RoundTripper{Inj: NewInjector(1), Faults: HTTPFaults{ServerErrorRate: 1.0}}
		resp, err := rt.RoundTrip(req())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("status = %d, want 503", resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		if !strings.Contains(string(body), "chaos") {
			t.Errorf("body = %q", body)
		}
	})

	t.Run("rate limited", func(t *testing.T) {
		rt := &RoundTripper{Inj: NewInjector(1), Faults: HTTPFaults{TooManyRate: 1.0, RetryAfter: 3 * time.Second}}
		resp, err := rt.RoundTrip(req())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("status = %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "3" {
			t.Errorf("Retry-After = %q, want 3", ra)
		}
	})

	t.Run("transport error", func(t *testing.T) {
		rt := &RoundTripper{Inj: NewInjector(1), Faults: HTTPFaults{ErrorRate: 1.0}}
		if _, err := rt.RoundTrip(req()); err == nil {
			t.Fatal("injected transport error missing")
		}
	})
}

func TestWrapRunnerKill(t *testing.T) {
	var ran int
	base := func(ctx context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
		ran++
		return protocol.Result{State: protocol.StateSuccess}
	}
	inj := NewInjector(1)
	killAll := WrapRunner(base, inj, RunnerFaults{KillRate: 1.0})
	res := killAll(context.Background(), protocol.Task{ID: protocol.NewUUID()}, engine.WorkerInfo{})
	if res.State != "" {
		t.Errorf("killed runner returned state %q, want zero Result", res.State)
	}
	if ran != 0 {
		t.Error("wrapped runner executed despite kill")
	}
	if inj.Fired("runner.kill") != 1 {
		t.Errorf("runner.kill fired = %d", inj.Fired("runner.kill"))
	}
}

func TestWrapRunnerKillIf(t *testing.T) {
	poison := protocol.NewUUID()
	base := func(ctx context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
		return protocol.Result{State: protocol.StateSuccess}
	}
	inj := NewInjector(1)
	run := WrapRunner(base, inj, RunnerFaults{KillIf: func(t protocol.Task) bool { return t.ID == poison }})
	if res := run(context.Background(), protocol.Task{ID: poison}, engine.WorkerInfo{}); res.State != "" {
		t.Error("poison task survived KillIf")
	}
	if res := run(context.Background(), protocol.Task{ID: protocol.NewUUID()}, engine.WorkerInfo{}); res.State != protocol.StateSuccess {
		t.Error("healthy task killed")
	}
	if inj.Fired("runner.poison_kill") != 1 {
		t.Errorf("poison_kill fired = %d, want 1", inj.Fired("runner.poison_kill"))
	}
}
