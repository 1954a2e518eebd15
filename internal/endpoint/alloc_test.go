package endpoint

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"globuscompute/internal/broker"
	"globuscompute/internal/engine"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/trace"
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

// nopConn is a fakeConn whose publishes keep nothing.
type nopConn struct{ fakeConn }

func (*nopConn) PublishBatch(string, [][]byte, []trace.Context) error { return nil }

// addDeliveries is a full intake batch of binary add tasks, the sat-mem
// shape.
func addDeliveries(n int, payload []byte) []broker.Message {
	batch := make([]broker.Message, n)
	for i := range batch {
		task := protocol.Task{
			ID: protocol.NewUUID(), FunctionID: protocol.NewUUID(), EndpointID: protocol.NewUUID(),
			Kind: protocol.KindPython, Payload: payload, UserIdentity: "alice@uchicago.edu",
		}
		batch[i] = broker.Message{Tag: uint64(i + 1), Body: protocol.EncodeTask(&task)}
	}
	return batch
}

// TestProcessDeliveriesAllocs: dispatching a 64-task intake batch costs the
// decodes (a string arena and a payload copy per task) and the ack, and no
// per-batch slice of tasks or spans.
func TestProcessDeliveriesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	eng, err := engine.New(engine.Config{
		Provider: provider.NewLocal(1), Run: instantRunner,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	sub := newFakeSub(0)
	a, err := New(Config{EndpointID: protocol.NewUUID(), Conn: &nopConn{fakeConn{sub: sub}}, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	a.sub = sub
	const n = 64
	batch := addDeliveries(n, []byte(`{"entrypoint":"add","args":[1,2]}`))
	bytes, objects := heapPerRun(10, func() { a.processDeliveries(batch) }, func() {
		for i := 0; i < n; i++ {
			<-eng.Results()
		}
		a.acks.Wait()
		sub.mu.Lock()
		sub.acks = sub.acks[:0]
		sub.mu.Unlock()
	})
	t.Logf("a %d-task intake batch: %.0f B, %.1f objects", n, bytes, objects)
	if bytes > 14<<10 || objects > 2*n+4 {
		t.Errorf("a %d-task intake batch allocates %.0f B in %.1f objects, want at most %d B and %d",
			n, bytes, objects, 14<<10, 2*n+4)
	}
}

// TestEgressFlushAllocs: a 64-result flush costs one body per result and
// the flush's goroutine: the results, bodies and contexts ride in a
// circulating buffer.
func TestEgressFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	sub := newFakeSub(0)
	a := pipelineAgent(t, &nopConn{fakeConn{sub: sub}}, instantRunner)
	const n = 64
	results := make([]protocol.Result, n)
	for i := range results {
		results[i] = protocol.Result{TaskID: protocol.NewUUID(), State: protocol.StateSuccess, Output: []byte(fmt.Sprint(i))}
	}
	bytes, objects := heapPerRun(10, func() {
		for _, res := range results {
			a.enqueueResult(res)
		}
		for a.egressBacklog.Load() > 0 {
			runtime.Gosched()
		}
	}, nil)
	t.Logf("a %d-result flush: %.0f B, %.1f objects", n, bytes, objects)
	if bytes > 6<<10 || objects > n+6 {
		t.Errorf("a %d-result flush allocates %.0f B in %.1f objects, want at most %d B and %d",
			n, bytes, objects, 6<<10, n+6)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestAgentScratchPinsNoBody: once a batch of tasks with 200 kB payloads
// has run and its 200 kB results have been published, the heap in use is
// back at its baseline: neither the intake scratch nor an egress buffer
// still references a body. A one-task batch after the big one makes sure
// the intake loop has finished with it, and overwrites one slot at most.
func TestAgentScratchPinsNoBody(t *testing.T) {
	const n, size = 16, 200 << 10
	sub := newFakeSub(n)
	a := pipelineAgent(t, &nopConn{fakeConn{sub: sub}}, instantRunner)
	run := func(k int, payload func() []byte) {
		t.Helper()
		want, acked := a.Metrics.Counter("results_published").Value()+int64(k), len(sub.ackedTags())+k
		for i := 0; i < k; i++ {
			task := protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindPython, Payload: payload()}
			sub.msgs <- broker.Message{Tag: uint64(i + 1), Body: protocol.EncodeTask(&task)}
		}
		waitFor(t, "results published", func() bool {
			return a.Metrics.Counter("results_published").Value() == want &&
				a.egressBacklog.Load() == 0 && len(sub.ackedTags()) == acked
		})
	}
	small := func() []byte { return []byte(`"small"`) }
	run(n, small) // the scratch grows
	base := liveHeap()
	run(n, func() []byte { return bytes.Repeat([]byte{'x'}, size) })
	run(1, small) // the intake loop has moved past the big batch
	if grown := int64(liveHeap()) - int64(base); grown > size/2 {
		t.Errorf("heap in use grew %d B over a batch of %d B bodies: scratch pins a body", grown, size)
	}
}
