package broker

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

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

// TestPublishBatchAllocs: publishing a batch costs one allocation for its
// bodies, not one per message for the entry, the body copy and a list
// element.
func TestPublishBatchAllocs(t *testing.T) {
	b := New()
	defer b.Close()
	if err := b.Declare("q"); err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("task body %d", i))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := b.PublishBatch("q", bodies, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("publishing %d messages: %.1f allocations, want at most 2", len(bodies), allocs)
	}
	if d, _ := b.Depth("q"); d != 101*len(bodies) {
		t.Errorf("depth %d, want %d", d, 101*len(bodies))
	}
}

// frameSignal is a connection that discards what it is sent and reports
// each write, one per flushed frame while frames stay under the writer's
// buffer size.
type frameSignal chan struct{}

func (s frameSignal) Write(p []byte) (int, error) {
	s <- struct{}{}
	return len(p), nil
}

// TestDeliveryPumpAllocs: a delivery pump forwarding a full 64-message
// batch allocates nothing of its own: the cycle's allocations are the
// publish's body arena and the ack's ID list.
func TestDeliveryPumpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	b := New()
	defer b.Close()
	if err := b.Declare("q"); err != nil {
		t.Fatal(err)
	}
	c, err := b.Consume("q", MaxDeliveryBatch)
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(frameSignal, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go (&Server{}).deliveryPump(&wg, protocol.NewFrameWriter(wrote), "q", c)
	defer wg.Wait()
	defer c.Close()

	bodies := make([][]byte, MaxDeliveryBatch)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("task body %d", i))
	}
	tags := make([]uint64, len(bodies))
	next := uint64(0)
	bytes, objects := heapPerRun(20, func() {
		if err := b.PublishBatch("q", bodies, nil); err != nil {
			t.Fatal(err)
		}
		<-wrote
		for i := range tags {
			next++
			tags[i] = next
		}
		if err := c.Ack(tags...); err != nil {
			t.Fatal(err)
		}
	}, nil)
	t.Logf("publish + pump + ack of %d messages: %.0f B, %.1f objects", len(bodies), bytes, objects)
	if bytes > 2048 || objects > 3 {
		t.Errorf("a %d-message cycle allocates %.0f B in %.1f objects, want at most 2048 B and 3", len(bodies), bytes, objects)
	}
}

// TestDeliveryPumpPinsNoBody: once a pump has forwarded a batch of 200 kB
// bodies and they are acked, the heap in use is back at its baseline: the
// pump's reused frame holds no body.
func TestDeliveryPumpPinsNoBody(t *testing.T) {
	const n, size = 8, 200 << 10
	b := New()
	defer b.Close()
	if err := b.Declare("q"); err != nil {
		t.Fatal(err)
	}
	c, err := b.Consume("q", MaxDeliveryBatch)
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(frameSignal, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go (&Server{}).deliveryPump(&wg, protocol.NewFrameWriter(wrote), "q", c)
	defer wg.Wait()
	defer c.Close()
	next := uint64(0)
	cycle := func(n int, body func() []byte) {
		t.Helper()
		bodies := make([][]byte, n)
		for i := range bodies {
			bodies[i] = body()
		}
		if err := b.PublishBatch("q", bodies, nil); err != nil {
			t.Fatal(err)
		}
		<-wrote
		tags := make([]uint64, n)
		for i := range tags {
			next++
			tags[i] = next
		}
		if err := c.Ack(tags...); err != nil {
			t.Fatal(err)
		}
	}
	small := func() []byte { return []byte("small") }
	cycle(n, small)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cycle(n, func() []byte { return bytes.Repeat([]byte{'x'}, size) })
	// The frame's write may still be returning when the test sees it; the
	// pump takes the next message only once it has cleared the last batch,
	// and a batch of one overwrites one slot of it.
	cycle(1, small)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > size/2 {
		t.Errorf("heap in use grew %d B over a batch of %d B bodies: the pump pins a body", grown, size)
	}
}
