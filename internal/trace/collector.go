package trace

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultCapacity is the collector ring size when unspecified: enough for
// ~1k traces of 8 spans without rolling over mid-benchmark.
const DefaultCapacity = 8192

// Collector is a bounded in-memory sink for finished spans. It keeps the
// most recent capacity spans in a ring of fixed-size slots and is safe for
// concurrent use from every instrumented hot path. Recording a span copies
// it into a slot; the Span views are built only when the ring is read.
type Collector struct {
	mu      sync.Mutex
	slots   []record
	next    int    // ring write cursor
	n       int    // retained slots
	total   uint64 // spans ever added
	dropped uint64 // spans overwritten by the ring
}

// NewCollector returns a collector retaining up to capacity spans
// (<=0 selects DefaultCapacity).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{slots: make([]record, capacity)}
}

// add records one finished span.
func (c *Collector) add(r *record) {
	c.mu.Lock()
	c.addLocked(r)
	c.mu.Unlock()
}

func (c *Collector) addLocked(r *record) {
	c.slots[c.next] = *r
	if c.next++; c.next == len(c.slots) {
		c.next = 0
	}
	c.total++
	if c.n < len(c.slots) {
		c.n++
	} else {
		c.dropped++
	}
}

// oldestLocked is the ring index of the oldest retained slot.
func (c *Collector) oldestLocked() int {
	if c.n < len(c.slots) {
		return 0
	}
	return c.next
}

// Len reports the number of retained spans.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Total reports spans ever added; Dropped reports how many the ring
// overwrote (Total - Dropped are retained or were retained longest).
func (c *Collector) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Dropped reports spans lost to ring overwrite.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// OldestStart reports the start of the oldest retained span (the zero time
// when none is), so now minus it is the history the ring holds.
func (c *Collector) OldestStart() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return time.Time{}
	}
	return time.Unix(0, c.slots[c.oldestLocked()].start)
}

// Snapshot returns retained spans oldest-first. The slots are copied out
// under the lock and viewed after it, so a reader holds span writers up
// for a copy, not for the views' allocations.
func (c *Collector) Snapshot() []Span {
	c.mu.Lock()
	recs := make([]record, c.n)
	k := copy(recs, c.slots[c.oldestLocked():c.n])
	copy(recs[k:], c.slots[:c.n-k])
	c.mu.Unlock()
	return views(recs)
}

// Trace returns the retained spans of one trace, ordered by start time.
func (c *Collector) Trace(id TraceID) []Span {
	var recs []record
	c.mu.Lock()
	for i := range c.slots[:c.n] {
		if c.slots[i].traceID == id {
			recs = append(recs, c.slots[i])
		}
	}
	c.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].start < recs[j].start })
	return views(recs)
}

func views(recs []record) []Span {
	if len(recs) == 0 {
		return nil
	}
	out := make([]Span, len(recs))
	for i := range recs {
		out[i] = recs[i].view()
	}
	return out
}

// TraceIDs lists the distinct retained trace IDs, most recently added last.
func (c *Collector) TraceIDs() []TraceID {
	c.mu.Lock()
	ids := make([]TraceID, 0, c.n)
	for i, at := 0, c.oldestLocked(); i < c.n; i++ {
		ids = append(ids, c.slots[at].traceID)
		if at++; at == len(c.slots) {
			at = 0
		}
	}
	c.mu.Unlock()
	seen := make(map[TraceID]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// Reset discards all retained spans (counters keep accumulating).
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.slots)
	c.next, c.n = 0, 0
}

// WriteJSONL exports retained spans oldest-first, one JSON object per line
// — loadable by any trace tooling.
func (c *Collector) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range c.Snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
