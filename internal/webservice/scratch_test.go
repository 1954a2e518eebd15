package webservice

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
)

// heapPerRun runs run once to warm up and then runs times more on one P,
// and returns the heap bytes and objects allocated per run. settle, when
// set, runs after each run, unmeasured. The counters are process-wide, so
// goroutines other tests left behind add to a run that blocks; the
// figures are the least of three rounds, which such noise only raises.
func heapPerRun(runs int, run, settle func()) (bytes, objects float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	bytes, objects = math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		var total, count uint64
		for i := 0; i <= runs; i++ {
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			if i > 0 {
				total += after.TotalAlloc - before.TotalAlloc
				count += after.Mallocs - before.Mallocs
			}
			if settle != nil {
				settle()
			}
		}
		bytes = min(bytes, float64(total)/float64(runs))
		objects = min(objects, float64(count)/float64(runs))
	}
	return bytes, objects
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// resultRig drives processResultBatch as runResultProcessor does, one
// batch at a time and with one scratch, on results delivered from a queue
// of its own, so the service's own processors stay out of the way. Its
// tasks all belong to one executor's group, whose stream it drains.
type resultRig struct {
	f               *fixture
	ep, fn, group   protocol.UUID
	results, stream *broker.Consumer
	sc              resultScratch
	batch           []broker.Message
}

const rigQueue = "results.rig"

func newResultRig(tb testing.TB, cfg Config) *resultRig {
	tb.Helper()
	r := &resultRig{f: newFixtureConfig(tb, cfg), group: protocol.NewUUID()}
	r.ep = r.f.registerEndpoint(tb, RegisterEndpointRequest{Name: "rig"})
	r.fn = r.f.registerFunction(tb)
	for _, q := range []string{rigQueue, GroupResultQueue(r.group)} {
		if err := r.f.brk.Declare(q); err != nil {
			tb.Fatal(err)
		}
	}
	var err error
	if r.results, err = r.f.brk.Consume(rigQueue, resultBatchMax); err != nil {
		tb.Fatal(err)
	}
	if r.stream, err = r.f.brk.Consume(GroupResultQueue(r.group), resultBatchMax); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		r.results.Close()
		r.stream.Close()
	})
	return r
}

// submit submits n tasks, as one executor's batch, each with its own
// payload.
func (r *resultRig) submit(tb testing.TB, n int, payload func() []byte) []protocol.UUID {
	tb.Helper()
	reqs := make([]SubmitRequest, n)
	for i := range reqs {
		reqs[i] = SubmitRequest{EndpointID: r.ep, FunctionID: r.fn, Payload: payload(), GroupID: r.group}
	}
	ids, err := r.f.svc.Submit(r.f.token, reqs)
	if err != nil {
		tb.Fatal(err)
	}
	return ids
}

// load delivers a successful result for each task, each with its own
// output, into r.batch.
func (r *resultRig) load(tb testing.TB, ids []protocol.UUID, output func() []byte) {
	tb.Helper()
	now := time.Now()
	bodies := make([][]byte, len(ids))
	for i, id := range ids {
		res := protocol.Result{
			TaskID: id, State: protocol.StateSuccess, EndpointID: r.ep, Output: output(),
			WorkerID: "w-1", Started: now, Completed: now, ExecutionMS: 0.01,
		}
		bodies[i] = protocol.EncodeResult(&res)
	}
	if err := r.f.brk.PublishBatch(rigQueue, bodies, nil); err != nil {
		tb.Fatal(err)
	}
	r.batch = r.batch[:0]
	for range ids {
		r.batch = append(r.batch, <-r.results.Messages())
	}
}

func (r *resultRig) process() { r.f.svc.processResultBatch(r.results, r.batch, &r.sc) }

// drain takes n streamed results off the group queue.
func (r *resultRig) drain(tb testing.TB, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		select {
		case m := <-r.stream.Messages():
			if err := r.stream.Ack(m.Tag); err != nil {
				tb.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			tb.Fatal("a recorded result was not streamed")
		}
	}
}

func smallOutput() []byte { return []byte("3") }

// TestResultBatchAllocs: recording a 64-result batch costs its decodes (a
// string arena and an output copy per result), the task rows' new tails
// and a few allocations per batch in the statestore and the group-stream
// publish; no per-batch slice of results, bodies or spans.
func TestResultBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	r := newResultRig(t, Config{Objects: objectstore.New()})
	const n = resultBatchMax
	r.load(t, r.submit(t, n, smallOutput), smallOutput)
	bytes, objects := heapPerRun(10, r.process, func() {
		r.drain(t, n)
		r.load(t, r.submit(t, n, smallOutput), smallOutput)
	})
	t.Logf("a %d-result batch: %.0f B, %.1f objects", n, bytes, objects)
	if bytes > 32<<10 || objects > 3*n+24 {
		t.Errorf("a %d-result batch allocates %.0f B in %.1f objects, want at most %d B and %d",
			n, bytes, objects, 32<<10, 3*n+24)
	}
}

// BenchmarkResultBatch: the result processor recording one 64-result
// batch (see TestResultBatchAllocs).
func BenchmarkResultBatch(b *testing.B) {
	r := newResultRig(b, Config{Objects: objectstore.New()})
	const n = resultBatchMax
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i > 0 {
			r.drain(b, n)
		}
		r.load(b, r.submit(b, n, smallOutput), smallOutput)
		b.StartTimer()
		r.process()
	}
}

// TestBatchScratchPinsNoBody: after a submit and a result batch whose
// payloads and outputs are 200 kB each, the heap in use is back at its
// baseline: no pooled or loop-owned scratch still references a body.
func TestBatchScratchPinsNoBody(t *testing.T) {
	const n, size = 16, 200 << 10
	r := newResultRig(t, Config{Objects: objectstore.New(), InlineThreshold: 2 * size})
	big := func() []byte { return bytes.Repeat([]byte{'x'}, size) }
	tasks, err := r.f.brk.Consume(TaskQueue(r.ep), n)
	if err != nil {
		t.Fatal(err)
	}
	defer tasks.Close()
	consume := func(n int) {
		for i := 0; i < n; i++ {
			m := <-tasks.Messages()
			if err := tasks.Ack(m.Tag); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Small tasks first, so the task table has grown its row storage.
	r.submit(t, 4*n, smallOutput)
	consume(4 * n)
	base := liveHeap()

	r.submit(t, n, big)
	consume(n)
	// Outputs for tasks the service does not know: each is decoded, held
	// in the scratch and settled, and nothing records it.
	unknown := make([]protocol.UUID, n)
	for i := range unknown {
		unknown[i] = protocol.NewUUID()
	}
	r.load(t, unknown, big)
	r.process()
	clear(r.batch) // the test's own references

	if grown := int64(liveHeap()) - int64(base); grown > size/2 {
		t.Errorf("heap in use grew %d B over a batch of %d B bodies: scratch pins a body", grown, size)
	}
}
