package objectstore

import (
	"container/list"
	"sync"

	"globuscompute/internal/metrics"
)

// Fetcher fetches an object by key — the read side of Store and Client,
// and the shape the endpoint runner and SDK executor use to resolve
// pass-by-reference payloads.
type Fetcher interface {
	Get(key string) ([]byte, error)
}

// DedupCache is a byte-budgeted read-through cache in front of a Fetcher.
// Endpoints put one in front of their object-store client so a 16-way
// fan-out of the same large input crosses the wire once: keys are
// content-addressed (SHA-256 of the bytes), so a cached entry can never be
// stale. Concurrent misses on one key are coalesced (singleflight) — the
// wire sees a single fetch even when every worker asks at once.
//
// The budget goes to objects that are read again, not to every object once
// (the small-FIFO half of S3-FIFO: Yang et al., "FIFO queues are all you
// need for cache eviction", SOSP 2023). A new object enters a probation FIFO
// of a tenth of the budget; the FIFO always keeps its newest entry, so one
// fan-out input larger than that still crosses the wire once. An entry asked
// for again while on probation moves to the main LRU when it reaches the
// FIFO's tail; the others leave. A stream of one-hit objects therefore
// never displaces the inputs that are shared.
type DedupCache struct {
	src Fetcher
	max int64

	mu        sync.Mutex
	bytes     int64      // probation + main
	probBytes int64      // probation only
	prob      *list.List // probation FIFO: front = newest
	main      *list.List // LRU: front = most recently used
	items     map[string]*list.Element
	inflight  map[string]*fetchCall

	Metrics *metrics.Registry
}

type cacheEntry struct {
	key  string
	data []byte
	// reread is set when the entry is asked for again while on probation;
	// inMain when it has moved to the main LRU.
	reread, inMain bool
}

// fetchCall is one in-flight source fetch that any number of callers wait
// on.
type fetchCall struct {
	done    chan struct{}
	data    []byte
	err     error
	waiters int // callers coalesced onto this fetch (guarded by mu)
}

// NewDedupCache caches up to maxBytes of objects fetched from src. A
// maxBytes <= 0 disables caching (every Get passes through).
func NewDedupCache(src Fetcher, maxBytes int64) *DedupCache {
	return &DedupCache{
		src:      src,
		max:      maxBytes,
		prob:     list.New(),
		main:     list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*fetchCall),
		Metrics:  metrics.NewRegistry(),
	}
}

// Get returns the object under key, from cache when possible. Objects
// larger than the cache budget are fetched but not retained.
func (d *DedupCache) Get(key string) ([]byte, error) {
	if d.max <= 0 {
		return d.src.Get(key)
	}
	d.mu.Lock()
	if el, ok := d.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.inMain {
			d.main.MoveToFront(el)
		} else {
			ent.reread = true
		}
		d.mu.Unlock()
		d.Metrics.Counter("dedup_cache_hits").Inc()
		return ent.data, nil
	}
	if call, ok := d.inflight[key]; ok {
		// Another goroutine is already fetching this key: wait for it
		// rather than issuing a duplicate wire transfer.
		call.waiters++
		d.mu.Unlock()
		<-call.done
		if call.err == nil {
			d.Metrics.Counter("dedup_cache_hits").Inc()
		}
		return call.data, call.err
	}
	call := &fetchCall{done: make(chan struct{})}
	d.inflight[key] = call
	d.mu.Unlock()

	d.Metrics.Counter("dedup_cache_misses").Inc()
	call.data, call.err = d.src.Get(key)
	close(call.done)

	d.mu.Lock()
	delete(d.inflight, key)
	if call.err == nil {
		d.add(key, call.data, call.waiters > 0)
	}
	d.mu.Unlock()
	return call.data, call.err
}

// add puts a fetched object on probation — already marked reread when
// coalesced callers asked for it during the fetch — then evicts until both
// budgets hold. Caller holds d.mu.
func (d *DedupCache) add(key string, data []byte, reread bool) {
	n := int64(len(data))
	if n > d.max {
		return // larger than the whole budget: serve, don't retain
	}
	d.items[key] = d.prob.PushFront(&cacheEntry{key: key, data: data, reread: reread})
	d.probBytes += n
	d.bytes += n
	// Probation: its tail leaves or, if reread, moves to the main LRU.
	for d.probBytes > d.max/10 && d.prob.Len() > 1 {
		tail := d.prob.Back()
		ent := tail.Value.(*cacheEntry)
		d.prob.Remove(tail)
		d.probBytes -= int64(len(ent.data))
		if ent.reread {
			ent.inMain = true
			d.items[ent.key] = d.main.PushFront(ent)
			continue
		}
		d.evict(ent)
	}
	// Whole budget: the main LRU's tail leaves. Probation alone never
	// exceeds the budget (it is within a tenth of it, or one object no
	// larger than it), so main is not empty while this loop runs.
	for d.bytes > d.max {
		tail := d.main.Back()
		d.main.Remove(tail)
		d.evict(tail.Value.(*cacheEntry))
	}
	d.Metrics.Gauge("dedup_cache_bytes").Set(d.bytes)
	d.Metrics.Gauge("dedup_cache_objects").Set(int64(len(d.items)))
}

// evict forgets an entry already unlinked from its list. Caller holds d.mu.
func (d *DedupCache) evict(ent *cacheEntry) {
	delete(d.items, ent.key)
	d.bytes -= int64(len(ent.data))
	d.Metrics.Counter("dedup_cache_evictions").Inc()
}

// Len returns the number of cached objects.
func (d *DedupCache) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}

// Bytes returns the cached byte total.
func (d *DedupCache) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}
