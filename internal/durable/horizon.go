package durable

import (
	"fmt"
	"sync"
	"time"

	"globuscompute/internal/metrics"
)

// horizon is the snapshot bookkeeping the durable store and the durable
// broker share: which journaled records are not yet applied in memory (so a
// snapshot never claims an LSN whose effect it may lack), the LSN and age of
// the newest on-disk snapshot, and the periodic snapshot loop.
type horizon struct {
	wal *WAL
	// path is the snapshot file; age is its exported age gauge.
	path string
	age  *metrics.Gauge

	mu       sync.Mutex
	nextTok  uint64
	inflight map[uint64]uint64 // token -> LSN (or conservative lower bound)
	snapLSN  uint64            // horizon of the newest on-disk snapshot
	snapAt   time.Time

	stop chan struct{}
	done chan struct{}
}

func newHorizon(wal *WAL, path string, snapLSN uint64, age *metrics.Gauge) *horizon {
	return &horizon{
		wal: wal, path: path, age: age,
		inflight: make(map[uint64]uint64),
		snapLSN:  snapLSN, snapAt: time.Now(),
	}
}

// commit group-commits one record and tracks it as in flight until the
// returned applied func reports its effect visible in memory.
func (h *horizon) commit(payload []byte) (applied func(), err error) {
	// Register before appending: the record's eventual LSN is strictly above
	// the log's current tail, so that tail+1 is a sound lower bound while the
	// append is in flight.
	h.mu.Lock()
	tok := h.nextTok
	h.nextTok++
	h.inflight[tok] = h.wal.LastLSN() + 1
	h.mu.Unlock()

	lsn, err := h.wal.Append(payload)
	h.mu.Lock()
	if err != nil {
		delete(h.inflight, tok)
		h.mu.Unlock()
		return nil, err
	}
	h.inflight[tok] = lsn
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		delete(h.inflight, tok)
		h.mu.Unlock()
	}, nil
}

// safeLSN returns the highest LSN such that every record at or below it is
// both durable and applied in memory — the snapshot horizon.
func (h *horizon) safeLSN() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	safe := h.wal.LastLSN()
	for _, lsn := range h.inflight {
		if lsn-1 < safe {
			safe = lsn - 1
		}
	}
	return safe
}

// snapshot writes image(safe) as the new snapshot file and compacts WAL
// segments below the safe horizon. It reports false, writing nothing, when
// the horizon has not advanced since the last snapshot.
func (h *horizon) snapshot(image func(safe uint64) ([]byte, error)) (bool, error) {
	safe := h.safeLSN()
	h.mu.Lock()
	cur := h.snapLSN
	h.mu.Unlock()
	if safe <= cur {
		return false, nil
	}
	buf, err := image(safe)
	if err != nil {
		return false, fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := WriteFileAtomic(h.path, buf, 0o644); err != nil {
		return false, fmt.Errorf("durable: snapshot: %w", err)
	}
	h.mu.Lock()
	h.snapLSN = safe
	h.snapAt = time.Now()
	h.mu.Unlock()
	h.age.Set(0)
	_, err = h.wal.CompactBelow(safe)
	return true, err
}

// start runs snap every interval, publishing the snapshot's age, until close.
func (h *horizon) start(every time.Duration, snap func() error) {
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	go func() {
		defer close(h.done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-ticker.C:
			}
			h.mu.Lock()
			age := time.Since(h.snapAt)
			h.mu.Unlock()
			h.age.Set(int64(age.Seconds()))
			_ = snap()
		}
	}()
}

// close stops the loop, takes a final snapshot, and closes the WAL.
func (h *horizon) close(snap func() error) error {
	if h.stop != nil {
		close(h.stop)
		<-h.done
		h.stop = nil
	}
	err := snap()
	if cerr := h.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
