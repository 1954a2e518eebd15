package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
)

// TestRequeueDispatchesFirst: with one worker, pending tasks start in
// submission order while the backlog's ring wraps and grows, and a requeued
// task starts before every older pending task.
func TestRequeueDispatchesFirst(t *testing.T) {
	var mu sync.Mutex
	var started []string
	gate := make(chan struct{})
	eng, err := New(Config{
		Provider:   provider.NewLocal(1),
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		Run: func(ctx context.Context, task protocol.Task, w WorkerInfo) protocol.Result {
			mu.Lock()
			started = append(started, string(task.Payload))
			mu.Unlock()
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return protocol.Result{State: protocol.StateSuccess}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	go func() {
		for range eng.Results() {
		}
	}()
	waitStarted := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			got := len(started)
			mu.Unlock()
			if got >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d tasks started, want %d", got, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	submit := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := eng.Submit(newTask(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want []string
	for i := 0; i <= 40; i++ {
		want = append(want, fmt.Sprint(i))
	}
	submit(0, 11)
	waitStarted(1)
	for i := 0; i < 5; i++ { // the front of the ring advances
		gate <- struct{}{}
	}
	waitStarted(6)
	submit(11, 41) // wraps, then grows while wrapped
	eng.requeue(newTask("requeued"))
	want = append(want[:6:6], append([]string{"requeued"}, want[6:]...)...)
	for i := 0; i < len(want)-6; i++ {
		gate <- struct{}{}
	}
	waitStarted(len(want))
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(started) != fmt.Sprint(want) {
		t.Errorf("start order\n got %v\nwant %v", started, want)
	}
}
