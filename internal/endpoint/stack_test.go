package endpoint

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/engine"
	"globuscompute/internal/metrics"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/statestore"
)

// drainQueue takes every message off a queue nobody else consumes.
func drainQueue(t *testing.T, brk *broker.Broker, queue string) []broker.Message {
	t.Helper()
	n, err := brk.Depth(queue)
	if err != nil {
		t.Fatal(err)
	}
	c, err := brk.Consume(queue, n+1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msgs := make([]broker.Message, 0, n)
	for len(msgs) < n {
		select {
		case m := <-c.Messages():
			msgs = append(msgs, m)
			if err := c.Ack(m.Tag); err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: %d of %d messages", queue, len(msgs), n)
		}
	}
	return msgs
}

// TestStackStopKeepsAcknowledgedTasks is the endpoint half of the SIGTERM
// path (the cloud half is webservice.TestStackDrainKeepsAcknowledgedTasks):
// an endpoint that dialed its own broker connection is stopped while one
// slow worker is in the middle of a backlog. Every task the agent took off
// the task queue must have a result on the result queue, the service must
// hear exactly one offline report and only after the last result was
// published, and stopping again must do nothing. Deliveries the agent had
// buffered but not yet handed to its engine are not its to fail: they go
// back on the task queue, flagged redelivered, for the next agent.
func TestStackStopKeepsAcknowledgedTasks(t *testing.T) {
	brk := broker.New()
	defer brk.Close()
	srv, err := broker.Serve(brk, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	epID := protocol.NewUUID()
	taskQ, resultQ := protocol.TaskQueue(epID), protocol.ResultQueue(epID)
	for _, q := range []string{taskQ, resultQ} {
		if err := brk.Declare(q); err != nil {
			t.Fatal(err)
		}
	}

	type offlineReport struct {
		load      statestore.EndpointLoad
		published int // result-queue depth when the report arrived
	}
	var (
		mu       sync.Mutex
		offline  []offlineReport
		reported int
	)
	st, err := OpenStack(StackConfig{
		EndpointID: epID,
		BrokerAddr: srv.Addr(),
		WrapRunner: func(run engine.TaskRunner) engine.TaskRunner {
			return func(ctx context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
				time.Sleep(3 * time.Millisecond)
				return run(ctx, task, w)
			}
		},
		Engine: engine.Config{Provider: provider.NewLocal(1), InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1},
		Heartbeat: func(id protocol.UUID, online bool, load *statestore.EndpointLoad, _ *metrics.Snapshot) error {
			mu.Lock()
			defer mu.Unlock()
			reported++
			if id != epID || load == nil {
				t.Errorf("report for %s with load %v", id, load)
				return nil
			}
			if !online {
				d, _ := brk.Depth(resultQ)
				offline = append(offline, offlineReport{*load, d})
			}
			return nil
		},
		HeartbeatInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 400
	submitted := make(map[protocol.UUID]bool, n)
	for i := 0; i < n; i++ {
		task := pythonTask(t, "identity", i)
		task.EndpointID = epID
		submitted[task.ID] = true
		body, err := json.Marshal(task)
		if err != nil {
			t.Fatal(err)
		}
		if err := brk.Publish(taskQ, body); err != nil {
			t.Fatal(err)
		}
	}
	// Stop in the middle: some results out, most of the backlog not.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if d, _ := brk.Depth(resultQ); d >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no results before the stop")
		}
		time.Sleep(time.Millisecond)
	}
	st.Stop()
	mu.Lock()
	reportedAtStop := reported
	mu.Unlock()
	st.Stop()

	// The closed connection hands its unacked deliveries back.
	for {
		if u, _ := brk.Unacked(taskQ); u == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unacked tasks never requeued")
		}
		time.Sleep(time.Millisecond)
	}
	left := make(map[protocol.UUID]bool)
	handedBack := 0
	for _, m := range drainQueue(t, brk, taskQ) {
		task, err := protocol.DecodeTask(m.Body)
		if err != nil {
			t.Fatal(err)
		}
		left[task.ID] = true
		if m.Redelivered {
			handedBack++
		}
	}
	results := make(map[protocol.UUID]bool)
	published := 0
	for _, m := range drainQueue(t, brk, resultQ) {
		res, err := protocol.DecodeResult(m.Body)
		if err != nil {
			t.Fatal(err)
		}
		if !submitted[res.TaskID] {
			t.Errorf("result for unknown task %s", res.TaskID)
		}
		// A stopped engine refuses a submit with ErrStopped; the tasks it had
		// accepted and never started fail with a different text.
		if res.Error == engine.ErrStopped.Error() {
			t.Errorf("task %s never reached the engine and came back %s: %s", res.TaskID, res.State, res.Error)
		}
		results[res.TaskID] = true
		published++
	}
	if len(left) == 0 || len(results) == 0 {
		t.Fatalf("stop was not mid-backlog: %d tasks left, %d results", len(left), len(results))
	}
	// One slow worker under a 400-task backlog: the delivery window was full
	// of tasks the engine had no room for when the stop came.
	if handedBack == 0 {
		t.Error("no buffered delivery was handed back flagged redelivered")
	}
	for id := range submitted {
		if !left[id] && !results[id] {
			t.Errorf("task %s was acknowledged and has no result", id)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(offline) != 1 {
		t.Fatalf("offline reports = %d, want 1", len(offline))
	}
	if offline[0].published != published {
		t.Errorf("offline report arrived with %d results published, %d by the end", offline[0].published, published)
	}
	if got := offline[0].load; int(got.ResultsPublished) != published || got.EgressBacklog == nil || *got.EgressBacklog != 0 {
		t.Errorf("offline load = %+v, want %d published and a zero backlog", got, published)
	}
	if reported != reportedAtStop {
		t.Errorf("second Stop sent %d more reports", reported-reportedAtStop)
	}
}

// TestStackMetricsCountReconnects drops the broker connection of an endpoint
// that dialed its own, once, through a relay in front of the broker server:
// the stack's /metrics body reports the redial as a non-zero
// gc_endpoint_broker_reconnects_total, and a task published after the drop
// still gets its result.
func TestStackMetricsCountReconnects(t *testing.T) {
	brk := broker.New()
	defer brk.Close()
	srv, err := broker.Serve(brk, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	epID := protocol.NewUUID()
	taskQ, resultQ := protocol.TaskQueue(epID), protocol.ResultQueue(epID)
	for _, q := range []string{taskQ, resultQ} {
		if err := brk.Declare(q); err != nil {
			t.Fatal(err)
		}
	}

	// The relay pipes each accepted connection to the broker server and keeps
	// the client side of each, so the test can cut one.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				c.Close()
				return
			}
			go func() { _, _ = io.Copy(up, c); up.Close() }()
			go func() { _, _ = io.Copy(c, up); c.Close() }()
			accepted <- c
		}
	}()

	st, err := OpenStack(StackConfig{
		EndpointID: epID,
		BrokerAddr: ln.Addr().String(),
		Engine:     engine.Config{Provider: provider.NewLocal(1), InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1},
		Heartbeat: func(protocol.UUID, bool, *statestore.EndpointLoad, *metrics.Snapshot) error {
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	runOne := func(arg int) {
		t.Helper()
		task := pythonTask(t, "identity", arg)
		task.EndpointID = epID
		if err := brk.Publish(taskQ, protocol.EncodeTask(&task)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if d, _ := brk.Depth(resultQ); d > 0 {
				drainQueue(t, brk, resultQ)
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("no result for task %d", arg)
			}
			time.Sleep(time.Millisecond)
		}
	}
	reconnects := func() string {
		var text strings.Builder
		if err := st.WriteMetrics(&text); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(text.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "gc_endpoint_broker_reconnects_total "); ok {
				return v
			}
		}
		return ""
	}

	runOne(1)
	if v := reconnects(); v != "" {
		t.Fatalf("reconnects = %s before any drop", v)
	}
	(<-accepted).Close()
	deadline := time.Now().Add(10 * time.Second)
	for v := reconnects(); v == "" || v == "0"; v = reconnects() {
		if time.Now().After(deadline) {
			t.Fatal("no gc_endpoint_broker_reconnects_total after the drop")
		}
		time.Sleep(5 * time.Millisecond)
	}
	runOne(2)
}
