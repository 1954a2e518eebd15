package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/scheduler"
)

// echoRunner returns the task payload as output.
func echoRunner(ctx context.Context, task protocol.Task, w WorkerInfo) protocol.Result {
	if ctx.Err() != nil {
		return protocol.Result{State: protocol.StateFailed, Error: "block released"}
	}
	return protocol.Result{State: protocol.StateSuccess, Output: task.Payload}
}

// slowRunner sleeps d then succeeds.
func slowRunner(d time.Duration) TaskRunner {
	return func(ctx context.Context, task protocol.Task, w WorkerInfo) protocol.Result {
		select {
		case <-time.After(d):
			return protocol.Result{State: protocol.StateSuccess, Output: task.Payload}
		case <-ctx.Done():
			return protocol.Result{State: protocol.StateFailed, Error: "cancelled"}
		}
	}
}

func newTask(payload string) protocol.Task {
	return protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindPython, Payload: []byte(payload)}
}

func TestEngineRunsTasks(t *testing.T) {
	eng, err := New(Config{
		Provider:   provider.NewLocal(2),
		Run:        echoRunner,
		InitBlocks: 1, MaxBlocks: 1, MinBlocks: 1,
		WorkersPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 20
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("task-%d", i)
		want[p] = true
		if err := eng.Submit(newTask(p)); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	timeout := time.After(5 * time.Second)
	for len(got) < n {
		select {
		case r := <-eng.Results():
			if r.State != protocol.StateSuccess {
				t.Fatalf("result %+v", r)
			}
			got[string(r.Output)] = true
		case <-timeout:
			t.Fatalf("received %d of %d results", len(got), n)
		}
	}
	for p := range want {
		if !got[p] {
			t.Errorf("missing result for %s", p)
		}
	}
	eng.Stop()
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Provider: provider.NewLocal(1)}); err == nil {
		t.Error("missing runner accepted")
	}
	if _, err := New(Config{Provider: provider.NewLocal(1), Run: echoRunner, MinBlocks: 5, MaxBlocks: 2}); err == nil {
		t.Error("min > max accepted")
	}
}

func TestSubmitBeforeStart(t *testing.T) {
	eng, _ := New(Config{Provider: provider.NewLocal(1), Run: echoRunner})
	if err := eng.Submit(newTask("x")); !errors.Is(err, ErrNotStarted) {
		t.Errorf("err = %v", err)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	eng, _ := New(Config{Provider: provider.NewLocal(1), Run: echoRunner, InitBlocks: 1, MinBlocks: 1})
	eng.Start()
	eng.Stop()
	if err := eng.Submit(newTask("x")); !errors.Is(err, ErrStopped) {
		t.Errorf("err = %v", err)
	}
}

func TestStopFailsPendingTasks(t *testing.T) {
	// One slow worker; submit more tasks than can start, stop, and expect
	// failed results for the stragglers rather than silence.
	eng, _ := New(Config{
		Provider:   provider.NewLocal(1),
		Run:        slowRunner(30 * time.Millisecond),
		InitBlocks: 1, MaxBlocks: 1, MinBlocks: 1,
	})
	eng.Start()
	const n = 10
	for i := 0; i < n; i++ {
		if err := eng.Submit(newTask(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	go eng.Stop()
	got := 0
	for range eng.Results() {
		got++
	}
	if got != n {
		t.Errorf("results = %d, want %d (no task lost in shutdown)", got, n)
	}
}

// TestStopWithoutReader: Stop returns while nearly ten times as many pending
// tasks as the results buffer holds are waiting and nobody reads; a reader
// that comes afterwards gets every task's failure, then the close.
func TestStopWithoutReader(t *testing.T) {
	eng, err := New(Config{
		Provider: provider.NewLocal(1),
		Run:      echoRunner,
		// No block, and no scaling tick before Stop: every task stays pending.
		MaxBlocks: 1, ScalingInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 10000 // nearly ten times resultBuffer
	tasks := make([]protocol.Task, n)
	for i := range tasks {
		tasks[i] = newTask(fmt.Sprint(i))
	}
	if errs := eng.SubmitBatch(tasks); errs != nil {
		t.Fatalf("submit: %v", errs)
	}
	stopped := make(chan struct{})
	go func() {
		eng.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatalf("Stop hung with %d pending tasks and no reader", n)
	}
	failed := 0
	for r := range eng.Results() {
		if r.State != protocol.StateFailed {
			t.Fatalf("result %+v, want a failure", r)
		}
		failed++
	}
	if failed != n {
		t.Errorf("%d failures before the close, want %d", failed, n)
	}
}

func TestScaleOutOnBacklog(t *testing.T) {
	sched := scheduler.SimpleCluster(4)
	defer sched.Close()
	prov, _ := provider.NewBatch(provider.BatchConfig{Scheduler: sched, NodesPerBlock: 1})
	eng, _ := New(Config{
		Provider:   prov,
		Run:        slowRunner(50 * time.Millisecond),
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 4,
		WorkersPerNode:  1,
		ScalingInterval: 10 * time.Millisecond,
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	const n = 24
	for i := 0; i < n; i++ {
		eng.Submit(newTask(fmt.Sprint(i)))
	}
	// Watch for scale-out while collecting results.
	maxBlocks := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		got := 0
		for got < n {
			select {
			case r := <-eng.Results():
				if r.State != protocol.StateSuccess {
					t.Errorf("result %+v", r)
				}
				got++
			case <-time.After(10 * time.Second):
				t.Errorf("only %d of %d results", got, n)
				return
			}
		}
	}()
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
	for {
		select {
		case <-done:
			if maxBlocks < 2 {
				t.Errorf("engine never scaled out (max live blocks %d)", maxBlocks)
			}
			return
		case <-poll.C:
			if s := eng.Stats(); s.LiveBlocks > maxBlocks {
				maxBlocks = s.LiveBlocks
			}
		}
	}
}

func TestScaleInOnIdle(t *testing.T) {
	sched := scheduler.SimpleCluster(4)
	defer sched.Close()
	prov, _ := provider.NewBatch(provider.BatchConfig{Scheduler: sched, NodesPerBlock: 1})
	eng, _ := New(Config{
		Provider:   prov,
		Run:        echoRunner,
		InitBlocks: 3, MinBlocks: 1, MaxBlocks: 4,
		ScalingInterval: 10 * time.Millisecond,
		IdleTimeout:     30 * time.Millisecond,
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := eng.Stats()
		if s.ConnectedMgrs == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("managers = %d, want scale-in to 1", s.ConnectedMgrs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBlockWalltimeRequeuesTasks(t *testing.T) {
	// Blocks with short walltime die mid-stream; tasks must still all
	// produce results via requeue onto replacement blocks.
	sched := scheduler.SimpleCluster(2)
	defer sched.Close()
	prov, _ := provider.NewBatch(provider.BatchConfig{
		Scheduler: sched, NodesPerBlock: 1, Walltime: 150 * time.Millisecond,
	})
	eng, _ := New(Config{
		Provider:   prov,
		Run:        slowRunner(20 * time.Millisecond),
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 2,
		ScalingInterval: 10 * time.Millisecond,
	})
	eng.Start()
	defer eng.Stop()
	const n = 30
	for i := 0; i < n; i++ {
		eng.Submit(newTask(fmt.Sprint(i)))
	}
	got := 0
	timeout := time.After(15 * time.Second)
	for got < n {
		select {
		case <-eng.Results():
			got++
		case <-timeout:
			t.Fatalf("results = %d of %d after block churn", got, n)
		}
	}
	checkChurnKeepsOrder(t, "channel")
}

// checkChurnKeepsOrder runs tasks one at a time on one-worker blocks that
// reach their walltime with tasks pending, over the given transport. Every
// task gets exactly one result, and tasks start in submission order: a task
// requeued from a dying block starts again before any task behind it.
func checkChurnKeepsOrder(t *testing.T, transport string) {
	t.Helper()
	sched := scheduler.SimpleCluster(1)
	defer sched.Close()
	prov, _ := provider.NewBatch(provider.BatchConfig{
		Scheduler: sched, NodesPerBlock: 1, Walltime: 100 * time.Millisecond,
	})
	var mu sync.Mutex
	var starts []int
	slow := slowRunner(10 * time.Millisecond)
	eng, err := New(Config{
		Provider: prov,
		Run: func(ctx context.Context, task protocol.Task, w WorkerInfo) protocol.Result {
			i, _ := strconv.Atoi(string(task.Payload))
			mu.Lock()
			starts = append(starts, i)
			mu.Unlock()
			return slow(ctx, task, w)
		},
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		ScalingInterval: 10 * time.Millisecond,
		Transport:       transport,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	const n = 40
	tasks := make([]protocol.Task, n)
	for i := range tasks {
		tasks[i] = newTask(strconv.Itoa(i))
	}
	if errs := eng.SubmitBatch(tasks); errs != nil {
		t.Fatalf("submit: %v", errs)
	}
	results := map[protocol.UUID]int{}
	timeout := time.After(30 * time.Second)
	for len(results) < n {
		select {
		case r := <-eng.Results():
			results[r.TaskID]++
		case <-timeout:
			t.Fatalf("%s: results = %d of %d after block churn", transport, len(results), n)
		}
	}
	for _, task := range tasks {
		if c := results[task.ID]; c != 1 {
			t.Errorf("%s: task %s has %d results, want 1", transport, task.Payload, c)
		}
	}
	if released := eng.Metrics.Counter("blocks_released").Value(); released == 0 {
		t.Errorf("%s: no block reached its walltime during the run", transport)
	}
	mu.Lock()
	defer mu.Unlock()
	next := 0
	for _, i := range starts {
		if i != next && i != next-1 {
			t.Fatalf("%s: start order %v: task %d started when %d was next", transport, starts, i, next)
		}
		if i == next {
			next++
		}
	}
	if next != n {
		t.Errorf("%s: %d of %d tasks started", transport, next, n)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, _ := New(Config{
		Provider:   provider.NewLocal(4),
		Run:        echoRunner,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		WorkersPerNode: 1,
	})
	eng.Start()
	defer eng.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := eng.Stats()
		if s.TotalWorkers == 4 && s.FreeWorkers == 4 && s.ConnectedMgrs == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v", eng.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		eng.Submit(newTask(fmt.Sprint(i)))
	}
	for i := 0; i < 8; i++ {
		<-eng.Results()
	}
	s := eng.Stats()
	if s.TasksSubmitted != 8 || s.TasksCompleted != 8 {
		t.Errorf("submitted/completed = %d/%d", s.TasksSubmitted, s.TasksCompleted)
	}
	if s.BlocksLaunched != 1 {
		t.Errorf("blocks launched = %d", s.BlocksLaunched)
	}
}

func TestResultMetadataStamped(t *testing.T) {
	eng, _ := New(Config{
		Provider:   provider.NewLocal(1),
		Run:        slowRunner(10 * time.Millisecond),
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
	})
	eng.Start()
	defer eng.Stop()
	task := newTask("meta")
	eng.Submit(task)
	r := <-eng.Results()
	if r.TaskID != task.ID {
		t.Errorf("task ID = %s", r.TaskID)
	}
	if r.WorkerID == "" {
		t.Error("worker ID missing")
	}
	if r.ExecutionMS < 5 {
		t.Errorf("execution ms = %f, want >= ~10", r.ExecutionMS)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	eng, _ := New(Config{Provider: provider.NewLocal(1), Run: echoRunner, InitBlocks: 1, MinBlocks: 1})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if err := eng.Start(); err == nil {
		t.Error("second Start succeeded")
	}
}

func TestBacklogCapacityRejects(t *testing.T) {
	eng, _ := New(Config{
		Provider:   provider.NewLocal(1),
		Run:        slowRunner(time.Second),
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
	})
	eng.Start()
	defer eng.Stop()
	// One task occupies the worker; fill the backlog, then overflow.
	accepted := 0
	var lastErr error
	for i := 0; i < queueCapacity+16; i++ {
		if err := eng.Submit(newTask(fmt.Sprint(i))); err != nil {
			lastErr = err
			break
		}
		accepted++
	}
	if lastErr == nil {
		t.Fatal("backlog never filled")
	}
	// The backlog's capacity plus dispatched tasks; acceptance is bounded
	// below the attempts.
	if accepted > queueCapacity+4 {
		t.Errorf("accepted %d submissions with capacity %d", accepted, queueCapacity)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	eng, _ := New(Config{
		Provider:   provider.NewLocal(4),
		Run:        echoRunner,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		WorkersPerNode: 2,
	})
	eng.Start()
	defer eng.Stop()
	const submitters, each = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := eng.Submit(newTask(fmt.Sprintf("%d-%d", s, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	total := submitters * each
	got := 0
	timeout := time.After(10 * time.Second)
	for got < total {
		select {
		case <-eng.Results():
			got++
		case <-timeout:
			t.Fatalf("results = %d of %d", got, total)
		}
	}
}

func TestPoisonTaskDeadLetters(t *testing.T) {
	// A task that crashes its worker on every attempt must consume exactly
	// MaxAttempts tries and then surface as a dead-lettered failure.
	var invocations atomic.Int64
	crashRunner := func(ctx context.Context, task protocol.Task, w WorkerInfo) protocol.Result {
		invocations.Add(1)
		return protocol.Result{} // zero Result = worker died mid-task
	}
	eng, _ := New(Config{
		Provider:   provider.NewLocal(1),
		Run:        crashRunner,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		MaxAttempts: 3,
	})
	eng.Start()
	defer eng.Stop()
	task := newTask("poison")
	if err := eng.Submit(task); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-eng.Results():
		if r.State != protocol.StateFailed {
			t.Errorf("state = %s, want failed", r.State)
		}
		if !r.DeadLettered {
			t.Errorf("result not marked dead-lettered: %+v", r)
		}
		if r.TaskID != task.ID {
			t.Errorf("task ID = %s", r.TaskID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result for poison task")
	}
	if n := invocations.Load(); n != 3 {
		t.Errorf("runner invoked %d times, want exactly MaxAttempts=3", n)
	}
	if v := eng.Metrics.Counter("deadlettered_tasks").Value(); v != 1 {
		t.Errorf("deadlettered_tasks = %d, want 1", v)
	}
	if v := eng.Metrics.Counter("worker_crashes").Value(); v != 3 {
		t.Errorf("worker_crashes = %d, want 3", v)
	}
}

func TestWorkerCrashRetriesThenSucceeds(t *testing.T) {
	// Crash the worker on the first two attempts; the third succeeds inside
	// the default attempt budget.
	var invocations atomic.Int64
	flaky := func(ctx context.Context, task protocol.Task, w WorkerInfo) protocol.Result {
		if invocations.Add(1) <= 2 {
			return protocol.Result{}
		}
		return protocol.Result{State: protocol.StateSuccess, Output: task.Payload}
	}
	eng, _ := New(Config{
		Provider:   provider.NewLocal(2),
		Run:        flaky,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		WorkersPerNode: 2,
	})
	eng.Start()
	defer eng.Stop()
	if err := eng.Submit(newTask("flaky")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-eng.Results():
		if r.State != protocol.StateSuccess {
			t.Errorf("result %+v, want success after retries", r)
		}
		if r.DeadLettered {
			t.Error("successful retry marked dead-lettered")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result for flaky task")
	}
	if n := invocations.Load(); n != 3 {
		t.Errorf("runner invoked %d times, want 3", n)
	}
	if v := eng.Metrics.Counter("requeued").Value(); v != 2 {
		t.Errorf("requeued = %d, want 2", v)
	}
}
