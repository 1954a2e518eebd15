package engine

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/scheduler"
)

func newTCPEngine(t *testing.T, prov provider.Provider, run TaskRunner, blocks int) *Engine {
	t.Helper()
	eng, err := New(Config{
		Provider: prov, Run: run,
		InitBlocks: blocks, MinBlocks: blocks, MaxBlocks: blocks,
		WorkersPerNode: 2,
		Transport:      "tcp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestTCPTransportRunsTasks(t *testing.T) {
	eng := newTCPEngine(t, provider.NewLocal(2), echoRunner, 1)
	defer eng.Stop()
	if eng.InterchangeAddr() == "" {
		t.Fatal("no interchange address in tcp mode")
	}
	const n = 30
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("tcp-task-%d", i)
		want[p] = true
		if err := eng.Submit(newTask(p)); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	timeout := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case r := <-eng.Results():
			if r.State != protocol.StateSuccess {
				t.Fatalf("result %+v", r)
			}
			got[string(r.Output)] = true
			if r.WorkerID == "" {
				t.Error("worker ID missing on TCP path")
			}
		case <-timeout:
			t.Fatalf("received %d of %d", len(got), n)
		}
	}
	for p := range want {
		if !got[p] {
			t.Errorf("missing %s", p)
		}
	}
}

// TestTCPRegisterRefusesNoCapacity: a register without a worker slot is
// refused by closing its connection, and the engine keeps serving its own
// manager.
func TestTCPRegisterRefusesNoCapacity(t *testing.T) {
	eng := newTCPEngine(t, provider.NewLocal(1), echoRunner, 1)
	defer eng.Stop()
	for _, capacity := range []int{-1, 0} {
		conn, err := net.Dial("tcp", eng.InterchangeAddr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		reg := &protocol.RegisterBody{BlockID: "rogue", Capacity: capacity}
		if err := protocol.NewFrameWriter(conn).Write(protocol.Envelope{Type: protocol.EnvRegister, Bin: reg}); err != nil {
			t.Fatal(err)
		}
		if env, err := protocol.NewFrameReader(conn).Read(); err == nil {
			t.Errorf("capacity %d: registration answered %s, want the connection closed", capacity, env.Type)
		}
		conn.Close()
	}
	if err := eng.Submit(newTask("after")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-eng.Results():
		if r.State != protocol.StateSuccess {
			t.Fatalf("result %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the engine stopped serving after a refused registration")
	}
}

func TestTCPTransportMultipleManagers(t *testing.T) {
	sched := scheduler.SimpleCluster(4)
	defer sched.Close()
	prov, _ := provider.NewBatch(provider.BatchConfig{Scheduler: sched, NodesPerBlock: 2})
	eng := newTCPEngine(t, prov, slowRunner(10*time.Millisecond), 2)
	defer eng.Stop()
	// Two blocks x 2 nodes x 2 workers/node = 8 workers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := eng.Stats()
		if s.ConnectedMgrs == 2 && s.TotalWorkers == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v", eng.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	const n = 40
	for i := 0; i < n; i++ {
		eng.Submit(newTask(fmt.Sprint(i)))
	}
	timeout := time.After(20 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-eng.Results():
		case <-timeout:
			t.Fatalf("results stalled at %d of %d", i, n)
		}
	}
}

func TestTCPManagerDeathRequeues(t *testing.T) {
	// Blocks die at walltime; the interchange requeues undrained tasks
	// onto the replacement manager and nothing is lost.
	sched := scheduler.SimpleCluster(2)
	defer sched.Close()
	prov, _ := provider.NewBatch(provider.BatchConfig{
		Scheduler: sched, NodesPerBlock: 1, Walltime: 150 * time.Millisecond,
	})
	eng, err := New(Config{
		Provider: prov, Run: slowRunner(15 * time.Millisecond),
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 2,
		WorkersPerNode:  1,
		ScalingInterval: 10 * time.Millisecond,
		Transport:       "tcp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	const n = 25
	for i := 0; i < n; i++ {
		eng.Submit(newTask(fmt.Sprint(i)))
	}
	got := 0
	timeout := time.After(30 * time.Second)
	for got < n {
		select {
		case <-eng.Results():
			got++
		case <-timeout:
			t.Fatalf("results = %d of %d after manager churn", got, n)
		}
	}
	checkChurnKeepsOrder(t, "tcp")
}

func TestTCPStopCleansUp(t *testing.T) {
	eng := newTCPEngine(t, provider.NewLocal(1), echoRunner, 1)
	eng.Submit(newTask("x"))
	<-eng.Results()
	eng.Stop()
	// Listener is closed: dialing fails.
	if _, err := New(Config{Provider: provider.NewLocal(1), Run: echoRunner, Transport: "warp"}); err == nil {
		t.Error("unknown transport accepted")
	}
}

// TestTCPManagerDeathRequeuesInOrder: a manager that dies with every slot
// in flight and more tasks pending returns its in-flight tasks to the front
// of the deque in the order they were dispatched, ahead of the pending
// ones, each with one attempt spent.
func TestTCPManagerDeathRequeuesInOrder(t *testing.T) {
	gate := make(chan struct{})
	var started atomic.Int32
	eng, err := New(Config{
		Provider: provider.NewLocal(1),
		Run: func(ctx context.Context, task protocol.Task, w WorkerInfo) protocol.Result {
			started.Add(1)
			<-gate // no result reaches the interchange before the drop
			return protocol.Result{State: protocol.StateSuccess}
		},
		InitBlocks: 1, MaxBlocks: 1, WorkersPerNode: 4,
		ScalingInterval: time.Hour, // no replacement block
		Transport:       "tcp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	defer close(gate)
	const n = 8
	tasks := make([]protocol.Task, n)
	for i := range tasks {
		tasks[i] = newTask(fmt.Sprint(i))
	}
	if errs := eng.SubmitBatch(tasks); errs != nil {
		t.Fatalf("submit: %v", errs)
	}
	waitUntil(t, "every slot busy", func() bool { return started.Load() == 4 })
	eng.mu.Lock()
	var blockID string
	for id := range eng.blocks {
		blockID = id
	}
	eng.mu.Unlock()
	go eng.cfg.Provider.CancelBlock(blockID) // returns once the gate opens
	waitUntil(t, "the manager gone and its tasks requeued", func() bool {
		s := eng.Stats()
		return s.ConnectedMgrs == 0 && s.PendingTasks == n
	})
	var order []string
	var attempts []int
	eng.mu.Lock()
	eng.pending.Each(func(t *protocol.Task) {
		order = append(order, string(t.Payload))
		attempts = append(attempts, t.Attempts)
	})
	eng.mu.Unlock()
	if got, want := fmt.Sprint(order), "[0 1 2 3 4 5 6 7]"; got != want {
		t.Errorf("pending order %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(attempts), "[1 1 1 1 0 0 0 0]"; got != want {
		t.Errorf("attempts %s, want %s", got, want)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
