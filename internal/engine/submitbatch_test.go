package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/trace"
)

func TestSubmitBatchRunsAll(t *testing.T) {
	eng, _ := New(Config{
		Provider:   provider.NewLocal(2),
		Run:        echoRunner,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		WorkersPerNode: 2,
	})
	eng.Start()
	defer eng.Stop()
	const n = 30
	batch := make([]protocol.Task, n)
	want := map[string]bool{}
	for i := range batch {
		p := fmt.Sprintf("batch-%d", i)
		batch[i] = newTask(p)
		want[p] = true
	}
	if errs := eng.SubmitBatch(batch); errs != nil {
		t.Fatalf("errs = %v, want nil", errs)
	}
	if v := eng.Metrics.Counter("submitted").Value(); v != n {
		t.Errorf("submitted counter = %d, want %d", v, n)
	}
	timeout := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case r := <-eng.Results():
			if r.State != protocol.StateSuccess {
				t.Fatalf("result %+v", r)
			}
			delete(want, string(r.Output))
		case <-timeout:
			t.Fatalf("received %d of %d results", i, n)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing results: %v", want)
	}
}

func TestSubmitBatchEmptyIsNoop(t *testing.T) {
	eng, _ := New(Config{Provider: provider.NewLocal(1), Run: echoRunner, InitBlocks: 1, MinBlocks: 1})
	if errs := eng.SubmitBatch(nil); errs != nil {
		t.Errorf("empty batch errs = %v", errs)
	}
}

func TestSubmitBatchBeforeStartAndAfterStop(t *testing.T) {
	eng, _ := New(Config{Provider: provider.NewLocal(1), Run: echoRunner, InitBlocks: 1, MinBlocks: 1})
	errs := eng.SubmitBatch([]protocol.Task{newTask("a"), newTask("b")})
	if len(errs) != 2 || !errors.Is(errs[0], ErrNotStarted) || !errors.Is(errs[1], ErrNotStarted) {
		t.Errorf("before start errs = %v, want ErrNotStarted x2", errs)
	}
	eng.Start()
	eng.Stop()
	errs = eng.SubmitBatch([]protocol.Task{newTask("c")})
	if len(errs) != 1 || !errors.Is(errs[0], ErrStopped) {
		t.Errorf("after stop errs = %v, want ErrStopped", errs)
	}
}

// TestSubmitBatchPartialOverflow checks per-task acceptance: a batch larger
// than the remaining backlog keeps its accepted prefix enqueued and reports
// an error only for the overflowing tail.
func TestSubmitBatchPartialOverflow(t *testing.T) {
	eng, _ := New(Config{
		Provider:   provider.NewLocal(1),
		Run:        slowRunner(time.Second),
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
	})
	eng.Start()
	defer eng.Stop()
	batch := make([]protocol.Task, queueCapacity+16)
	for i := range batch {
		batch[i] = newTask(fmt.Sprint(i))
	}
	errs := eng.SubmitBatch(batch)
	if errs == nil {
		t.Fatalf("batch of %d against capacity %d fully accepted", len(batch), queueCapacity)
	}
	accepted, rejected := 0, 0
	for _, err := range errs {
		if err == nil {
			accepted++
		} else {
			rejected++
		}
	}
	if rejected == 0 {
		t.Error("no per-task rejections recorded")
	}
	// The backlog's capacity plus whatever the dispatcher drained mid-batch;
	// acceptance stays below the attempted batch.
	if accepted > queueCapacity+4 {
		t.Errorf("accepted %d of %d with capacity %d", accepted, len(batch), queueCapacity)
	}
	if v := eng.Metrics.Counter("submitted").Value(); v != int64(accepted) {
		t.Errorf("submitted counter = %d, want %d accepted", v, accepted)
	}
}

// TestBareRunnerResultGetsIdentity is the regression test for central result
// stamping: a runner that fills only State/Output (the endpoint runner's success
// paths do exactly this) still yields a result carrying the task's ID and
// trace context, because workerLoop stamps identity engine-side.
func TestBareRunnerResultGetsIdentity(t *testing.T) {
	bare := func(ctx context.Context, task protocol.Task, w WorkerInfo) protocol.Result {
		return protocol.Result{State: protocol.StateSuccess, Output: []byte(`"ok"`)}
	}
	collector := trace.NewCollector(64)
	tracer := trace.NewTracer("engine-test", collector)
	eng, _ := New(Config{
		Provider:   provider.NewLocal(1),
		Run:        bare,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		Tracer: tracer,
	})
	eng.Start()
	defer eng.Stop()

	task := newTask("identity")
	root := tracer.StartSpan(trace.Context{}, "test.root")
	task.Trace = root.Context()
	if err := eng.Submit(task); err != nil {
		t.Fatal(err)
	}
	r := <-eng.Results()
	if r.TaskID != task.ID {
		t.Errorf("TaskID = %q, want %q (engine must stamp identity)", r.TaskID, task.ID)
	}
	if r.WorkerID == "" {
		t.Error("WorkerID not stamped")
	}
	if !r.Trace.Valid() {
		t.Fatal("trace context not stamped on bare runner result")
	}
	if r.Trace.TraceID != root.Context().TraceID {
		t.Errorf("result trace %s not in submitting trace %s", r.Trace.TraceID, root.Context().TraceID)
	}
	root.End()
}
