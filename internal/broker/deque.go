package broker

// deque is a ring buffer of entries: a queue level's ready messages, held
// by value so a message costs no allocation of its own. Its capacity is a
// power of two. It doubles when full; above dequeKeepCap it halves when an
// eighth full, so a drained burst does not keep its peak buffer, while a
// queue that fills and drains a batch at a time keeps its buffer instead
// of reallocating it on every cycle.
type deque struct {
	buf  []entry
	head int // index of the front entry
	n    int
}

const (
	dequeMinCap  = 16
	dequeKeepCap = 512
)

func (d *deque) Len() int { return d.n }

// at returns the i-th entry from the front.
func (d *deque) at(i int) *entry { return &d.buf[(d.head+i)&(len(d.buf)-1)] }

func (d *deque) PushBack(e entry) {
	d.grow()
	*d.at(d.n) = e
	d.n++
}

func (d *deque) PushFront(e entry) {
	d.grow()
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = e
	d.n++
}

// PopFront removes and returns the front entry; the deque must not be
// empty.
func (d *deque) PopFront() entry {
	slot := &d.buf[d.head]
	e := *slot
	*slot = entry{} // drop the body reference
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	if len(d.buf) > dequeKeepCap && d.n <= len(d.buf)/8 {
		d.resize(len(d.buf) / 2)
	}
	return e
}

// Each calls fn on every entry, front to back.
func (d *deque) Each(fn func(*entry)) {
	for i := 0; i < d.n; i++ {
		fn(d.at(i))
	}
}

func (d *deque) grow() {
	if d.n == len(d.buf) {
		d.resize(max(2*len(d.buf), dequeMinCap))
	}
}

func (d *deque) resize(size int) {
	buf := make([]entry, size)
	for i := 0; i < d.n; i++ {
		buf[i] = *d.at(i)
	}
	d.buf, d.head = buf, 0
}
