package endpoint

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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
// decodes (a string arena and a payload copy per task) and nothing else: no
// per-batch slice of tasks, spans or ack tags, and no goroutine for the ack.
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
	a.startAckers()
	defer close(a.ackQ)
	const n = 64
	batch := addDeliveries(n, []byte(`{"entrypoint":"add","args":[1,2]}`))
	bytes, objects := heapPerRun(10, func() { a.processDeliveries(batch) }, func() {
		for i := 0; i < n; i++ {
			<-eng.Results()
		}
		for len(a.ackFree) < ackFlightCap {
			runtime.Gosched()
		}
		sub.mu.Lock()
		sub.acks = sub.acks[:0]
		sub.mu.Unlock()
	})
	t.Logf("a %d-task intake batch: %.0f B, %.1f objects", n, bytes, objects)
	if bytes > 12<<10 || objects > 2*n+1 {
		t.Errorf("a %d-task intake batch allocates %.0f B in %.1f objects, want at most %d B and %d",
			n, bytes, objects, 12<<10, 2*n+1)
	}
}

// TestEgressFlushAllocs: a 64-result flush costs one body per result: the
// results, bodies and contexts ride in the publisher's own buffer, and the
// publisher is a long-lived goroutine.
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
			a.failures <- res
		}
		for a.egressPending() > 0 {
			runtime.Gosched()
		}
	}, nil)
	t.Logf("a %d-result flush: %.0f B, %.1f objects", n, bytes, objects)
	if bytes > 5<<10 || objects > n+2 {
		t.Errorf("a %d-result flush allocates %.0f B in %.1f objects, want at most %d B and %d",
			n, bytes, objects, 5<<10, n+2)
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
				a.egressPending() == 0 && len(sub.ackedTags()) == acked
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

// goroutineCeiling records the most goroutines seen at any sample.
type goroutineCeiling struct {
	mu  sync.Mutex
	max int
}

func (g *goroutineCeiling) sample() {
	n := runtime.NumGoroutine()
	g.mu.Lock()
	g.max = max(g.max, n)
	g.mu.Unlock()
}

// sampledSub samples the goroutine count inside every Ack.
type sampledSub struct {
	*fakeSub
	g *goroutineCeiling
}

func (s sampledSub) Ack(tags ...uint64) error {
	s.g.sample()
	return s.fakeSub.Ack(tags...)
}

// sampledConn samples the goroutine count inside every publish.
type sampledConn struct {
	nopConn
	g         *goroutineCeiling
	published atomic.Int64
}

func (c *sampledConn) PublishBatch(_ string, bodies [][]byte, _ []trace.Context) error {
	c.g.sample()
	c.published.Add(int64(len(bodies)))
	return nil
}

// TestAgentGoroutinesFlat: across a 10k-task agent run the goroutine count
// never rises above the idle agent's. Every ack and every flush is sampled
// while it is under way, so a goroutine spawned per drain or per flush would
// show up in the sample it is running.
func TestAgentGoroutinesFlat(t *testing.T) {
	const warm, n = 1000, 10000
	fs := newFakeSub(n)
	g := &goroutineCeiling{}
	conn := &sampledConn{nopConn: nopConn{fakeConn{sub: sampledSub{fs, g}}}, g: g}
	a := pipelineAgent(t, conn, instantRunner)
	tag := uint64(0)
	run := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			tag++
			task := protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindPython, Payload: []byte(`"x"`)}
			fs.msgs <- broker.Message{Tag: tag, Body: protocol.EncodeTask(&task)}
		}
		waitFor(t, "the agent idle", func() bool {
			return conn.published.Load() == int64(tag) && a.egressPending() == 0 &&
				len(fs.ackedTags()) == int(tag) && len(a.ackFree) == ackFlightCap
		})
	}
	run(warm) // every worker, publisher and acker is up
	base := runtime.NumGoroutine()
	g.mu.Lock()
	g.max = 0
	g.mu.Unlock()
	run(n)
	if g.max > base {
		t.Errorf("%d goroutines at the busiest ack or flush of a %d-task run, %d at idle", g.max, n, base)
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Errorf("%d goroutines after the run, %d before", now, base)
	}
}
