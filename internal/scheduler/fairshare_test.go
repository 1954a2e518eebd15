package scheduler

import (
	"context"
	"testing"
	"time"
)

func TestFairshareDemotesHeavyUser(t *testing.T) {
	s := SimpleCluster(1)
	defer s.Close()
	s.EnableFairshare(time.Hour, 5)

	// The heavy user burns node-seconds first.
	burnDone := make(chan struct{})
	s.Submit(JobSpec{User: "heavy", Script: func(context.Context, Allocation) error {
		time.Sleep(80 * time.Millisecond)
		close(burnDone)
		return nil
	}})
	<-burnDone
	// Wait until the usage charge lands (completion goroutine).
	deadline := time.Now().Add(2 * time.Second)
	for s.fair.current("heavy") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("usage never charged")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Occupy the node, then queue heavy before light at equal priority.
	release := make(chan struct{})
	s.Submit(JobSpec{User: "blocker", Script: func(ctx context.Context, _ Allocation) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}})
	order := make(chan string, 2)
	s.Submit(JobSpec{User: "heavy", Script: func(context.Context, Allocation) error {
		order <- "heavy"
		return nil
	}})
	s.Submit(JobSpec{User: "light", Script: func(context.Context, Allocation) error {
		order <- "light"
		return nil
	}})
	close(release)
	first := <-order
	second := <-order
	if first != "light" || second != "heavy" {
		t.Errorf("order = %s, %s; fairshare should favor the light user", first, second)
	}
}

func TestFairshareDecay(t *testing.T) {
	f := newFairshare(50 * time.Millisecond)
	base := time.Now()
	f.now = func() time.Time { return base }
	f.charge("u", 2, 10*time.Second) // 20 node-seconds
	if got := f.current("u"); got < 19.9 || got > 20.1 {
		t.Fatalf("usage = %f", got)
	}
	// One halflife later: half the usage.
	f.now = func() time.Time { return base.Add(50 * time.Millisecond) }
	if got := f.current("u"); got < 9.9 || got > 10.1 {
		t.Errorf("decayed usage = %f, want ~10", got)
	}
	// Unknown users and empty names are free.
	if f.current("stranger") != 0 || f.current("") != 0 {
		t.Error("phantom usage")
	}
}

func TestFairshareDisabledIsNeutral(t *testing.T) {
	s := SimpleCluster(1)
	defer s.Close()
	if s.fair != nil {
		t.Error("usage tracked without fairshare")
	}
	// Priority ordering still works without fairshare (regression).
	release := make(chan struct{})
	s.Submit(JobSpec{Script: func(ctx context.Context, _ Allocation) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}})
	order := make(chan string, 2)
	s.Submit(JobSpec{Name: "lo", Priority: 1, Script: func(context.Context, Allocation) error {
		order <- "lo"
		return nil
	}})
	s.Submit(JobSpec{Name: "hi", Priority: 9, Script: func(context.Context, Allocation) error {
		order <- "hi"
		return nil
	}})
	close(release)
	if first := <-order; first != "hi" {
		t.Errorf("first = %s", first)
	}
}
