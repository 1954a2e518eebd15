package broker

import (
	"fmt"
	"testing"
)

// TestDequeOrder: push-back and push-front keep FIFO order with requeues
// at the front, across growth, wraparound and shrinking, and a popped slot
// drops its body.
func TestDequeOrder(t *testing.T) {
	var d deque
	var want []uint64
	next := uint64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			next++
			d.PushBack(entry{id: next})
			want = append(want, next)
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			e := d.PopFront()
			if e.id != want[0] {
				t.Fatalf("popped %d, want %d", e.id, want[0])
			}
			want = want[1:]
		}
	}
	push(10)
	pop(7)
	push(100) // grows while wrapped
	front := d.PopFront()
	d.PushFront(front) // a requeue goes back to the front
	pop(50)
	if got := len(d.buf); got < d.Len() || got&(got-1) != 0 {
		t.Fatalf("capacity %d for %d entries", got, d.Len())
	}
	var seen []uint64
	d.Each(func(e *entry) { seen = append(seen, e.id) })
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("Each = %v, want %v", seen, want)
	}
	pop(d.Len())
	if len(d.buf) > dequeKeepCap {
		t.Errorf("drained deque keeps %d slots", len(d.buf))
	}
	push(10 * dequeKeepCap)
	pop(d.Len())
	if len(d.buf) > dequeKeepCap {
		t.Errorf("deque drained after a burst keeps %d slots", len(d.buf))
	}
	d.PushBack(entry{body: []byte("x")})
	d.PopFront()
	for i := range d.buf {
		if d.buf[i].body != nil {
			t.Fatal("a popped slot still holds its body")
		}
	}
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
