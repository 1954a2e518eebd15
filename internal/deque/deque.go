// Package deque is a ring-buffer double-ended queue of values: the broker's
// ready levels and the engine's pending tasks. An element held by value
// costs no allocation of its own, and a push to the front is O(1), so a
// requeue does not copy the backlog.
package deque

// Deque is a ring buffer of T. Its capacity is a power of two. It doubles
// when full; above keepCap it halves when an eighth full, so a drained burst
// does not keep its peak buffer, while a queue that fills and drains a batch
// at a time keeps its buffer instead of reallocating it on every cycle. The
// zero value is an empty deque.
type Deque[T any] struct {
	buf  []T
	head int // index of the front element
	n    int
}

const (
	minCap  = 16
	keepCap = 512
)

// Len returns the number of elements.
func (d *Deque[T]) Len() int { return d.n }

// at returns the i-th element from the front.
func (d *Deque[T]) at(i int) *T { return &d.buf[(d.head+i)&(len(d.buf)-1)] }

// PushBack appends v at the back.
func (d *Deque[T]) PushBack(v T) {
	d.grow()
	*d.at(d.n) = v
	d.n++
}

// PushFront inserts v at the front, ahead of every element.
func (d *Deque[T]) PushFront(v T) {
	d.grow()
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

// PopFront removes and returns the front element; the deque must not be
// empty. The vacated slot is zeroed, so it references nothing the element
// did.
func (d *Deque[T]) PopFront() T {
	slot := &d.buf[d.head]
	v := *slot
	var zero T
	*slot = zero
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	if len(d.buf) > keepCap && d.n <= len(d.buf)/8 {
		d.resize(len(d.buf) / 2)
	}
	return v
}

// Each calls fn on every element, front to back.
func (d *Deque[T]) Each(fn func(*T)) {
	for i := 0; i < d.n; i++ {
		fn(d.at(i))
	}
}

func (d *Deque[T]) grow() {
	if d.n == len(d.buf) {
		d.resize(max(2*len(d.buf), minCap))
	}
}

func (d *Deque[T]) resize(size int) {
	buf := make([]T, size)
	for i := 0; i < d.n; i++ {
		buf[i] = *d.at(i)
	}
	d.buf, d.head = buf, 0
}
