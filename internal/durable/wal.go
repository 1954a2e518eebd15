// Package durable is the control plane's persistence layer: a segmented,
// CRC-checked, fsync-batched write-ahead log with group commit, periodic
// snapshots with log compaction, and crash-recovery paths for the statestore
// (store.go) and the message broker (brokerlog.go). It stands in for the
// hosted service's managed persistence tier (RDS for task state, durable
// RabbitMQ queues) so that a webservice or broker crash loses no
// acknowledged work: every mutation is journaled before it is applied, and
// startup replays the newest snapshot plus the log tail — tolerating a torn
// final record — to restore the exact pre-crash state.
//
// Group commit: concurrent appenders write into one buffered segment; the
// first waiter becomes the committer and a single flush+fsync covers
// everyone queued behind it, so the per-append fsync cost amortizes across
// the batch exactly like the statestore's sharded batch APIs amortize lock
// round trips.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/metrics"
)

// Tunables and format constants.
const (
	// DefaultSegmentBytes is the segment rotation threshold.
	DefaultSegmentBytes = 4 << 20
	// DefaultFlushEvery bounds how long an async (no-wait) append may sit in
	// the write buffer before the background flusher commits it.
	DefaultFlushEvery = 25 * time.Millisecond

	// recordHeaderSize is the fixed per-record header: LSN (8 bytes), payload
	// length (4), CRC-32C over LSN+length+payload (4).
	recordHeaderSize = 16
	// maxRecordBytes rejects absurd lengths during replay so a corrupt
	// header cannot drive a giant allocation.
	maxRecordBytes = 64 << 20

	segmentSuffix = ".wal"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends on a closed WAL.
var ErrClosed = errors.New("durable: wal closed")

// WALOptions configures a write-ahead log.
type WALOptions struct {
	// Dir holds the segment files. Created if missing.
	Dir string
	// Metrics receives wal_appends (exported wal_appends_total), wal_fsync
	// (exported wal_fsync_seconds), wal_segment_bytes, wal_segments, and
	// wal_tail_repairs (incremented when OpenWAL truncates a torn tail left
	// by a crash mid-write). Nil uses a private registry.
	Metrics *metrics.Registry

	// This package's tests set these on throwaway state. segmentBytes is
	// the rotation threshold (default DefaultSegmentBytes). noSync skips
	// fsync on commit; records still flush to the OS on every commit.
	// flushEvery bounds async-append buffering (default DefaultFlushEvery;
	// <0 disables the background flusher).
	segmentBytes int64
	noSync       bool
	flushEvery   time.Duration
}

// segment is one on-disk log file. Its name encodes the first LSN it may
// contain, so recovery and compaction order segments without reading them.
type segment struct {
	path     string
	firstLSN uint64
}

// WAL is a segmented write-ahead log. Appends are safe for concurrent use;
// Replay must complete before the first append (the recovery sequence).
type WAL struct {
	opts WALOptions

	mu        sync.Mutex
	cond      *sync.Cond
	f         *os.File
	w         *bufio.Writer
	size      int64 // active segment size including buffered bytes
	segs      []segment
	nextLSN   uint64
	writeSeq  uint64 // bumped per append batch
	syncedSeq uint64 // highest writeSeq known durable
	syncing   bool
	err       error // sticky write/sync failure
	closed    bool
	stopFlush chan struct{}
	flushDone chan struct{}

	appends     *metrics.Counter
	fsyncs      *metrics.Histogram
	segBytes    *metrics.Gauge
	segCount    *metrics.Gauge
	tailRepairs *metrics.Counter
}

// OpenWAL opens (or creates) the log in opts.Dir, scans the existing
// segments to find the last durable record, and repairs a torn tail by
// truncating the active segment after the last record whose CRC verifies.
// The returned WAL is ready for Replay followed by appends.
func OpenWAL(opts WALOptions) (*WAL, error) {
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = DefaultSegmentBytes
	}
	if opts.flushEvery == 0 {
		opts.flushEvery = DefaultFlushEvery
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: wal dir: %w", err)
	}
	w := &WAL{
		opts:        opts,
		appends:     opts.Metrics.Counter("wal_appends"), // exports as wal_appends_total
		fsyncs:      opts.Metrics.Histogram("wal_fsync"),
		segBytes:    opts.Metrics.Gauge("wal_segment_bytes"),
		segCount:    opts.Metrics.Gauge("wal_segments"),
		tailRepairs: opts.Metrics.Counter("wal_tail_repairs"),
	}
	w.cond = sync.NewCond(&w.mu)

	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	w.segs = segs
	w.nextLSN = 1
	if len(segs) == 0 {
		if err := w.newSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		// Scan every segment for the true last LSN; repair the tail of the
		// active (last) segment so new appends never interleave with a torn
		// record left by a crash mid-write.
		for i, seg := range segs {
			last, goodOff, _, err := scanSegment(seg.path)
			if err != nil {
				return nil, err
			}
			if last >= w.nextLSN {
				w.nextLSN = last + 1
			}
			if i == len(segs)-1 {
				fi, err := os.Stat(seg.path)
				if err != nil {
					return nil, fmt.Errorf("durable: wal stat: %w", err)
				}
				if goodOff < fi.Size() {
					if err := os.Truncate(seg.path, goodOff); err != nil {
						return nil, fmt.Errorf("durable: wal tail repair: %w", err)
					}
					// A clean shutdown leaves no torn tail; this only fires
					// when recovering from a crash mid-write.
					w.tailRepairs.Inc()
				}
				f, err := os.OpenFile(seg.path, os.O_WRONLY, 0o644)
				if err != nil {
					return nil, fmt.Errorf("durable: wal open: %w", err)
				}
				if _, err := f.Seek(goodOff, io.SeekStart); err != nil {
					f.Close()
					return nil, fmt.Errorf("durable: wal seek: %w", err)
				}
				w.f = f
				w.w = bufio.NewWriterSize(f, 64<<10)
				w.size = goodOff
			}
		}
		// An empty trailing segment still names the next LSN range.
		if last := segs[len(segs)-1].firstLSN; last > w.nextLSN {
			w.nextLSN = last
		}
	}
	w.publishGaugesLocked()

	if opts.flushEvery > 0 {
		w.stopFlush = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: wal dir: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 16, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), firstLSN: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// scanSegment walks a segment and returns the last valid LSN it holds, the
// byte offset just past the last valid record, and the record count. A torn
// or corrupt record ends the scan without error: everything after it is
// garbage by definition (records are written strictly in order).
func scanSegment(path string) (lastLSN uint64, goodOffset int64, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("durable: wal scan: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	var off int64
	header := make([]byte, recordHeaderSize)
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			return lastLSN, off, n, nil // clean EOF or torn header
		}
		lsn := binary.BigEndian.Uint64(header[0:8])
		length := binary.BigEndian.Uint32(header[8:12])
		crc := binary.BigEndian.Uint32(header[12:16])
		if length > maxRecordBytes {
			return lastLSN, off, n, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return lastLSN, off, n, nil // torn payload
		}
		if recordCRC(lsn, payload) != crc {
			return lastLSN, off, n, nil // bit flip: stop at last good record
		}
		off += recordHeaderSize + int64(length)
		lastLSN = lsn
		n++
	}
}

func recordCRC(lsn uint64, payload []byte) uint32 {
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[0:8], lsn)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	c := crc32.Update(0, castagnoli, hdr[:])
	return crc32.Update(c, castagnoli, payload)
}

// Append durably journals the payloads as consecutive records and returns
// the LSN of the first. It does not return until the records are flushed and
// (unless noSync) fsynced; concurrent appenders share one fsync via group
// commit.
func (w *WAL) Append(payloads ...[]byte) (uint64, error) {
	seq, first, err := w.write(payloads)
	if err != nil {
		return 0, err
	}
	return first, w.waitSynced(seq)
}

// AppendAsync journals the payloads without waiting for the commit: the
// background flusher (or the next synchronous Append) makes them durable.
// Used for records whose loss only widens redelivery — broker acks — so the
// hot ack path never waits on the disk.
func (w *WAL) AppendAsync(payloads ...[]byte) (uint64, error) {
	_, first, err := w.write(payloads)
	return first, err
}

// Sync blocks until everything appended so far is durable.
func (w *WAL) Sync() error {
	w.mu.Lock()
	seq := w.writeSeq
	w.mu.Unlock()
	return w.waitSynced(seq)
}

func (w *WAL) write(payloads [][]byte) (seq, firstLSN uint64, err error) {
	if len(payloads) == 0 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.writeSeq, w.nextLSN, w.err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, 0, ErrClosed
	}
	if w.err != nil {
		return 0, 0, w.err
	}
	if w.size >= w.opts.segmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.err = err
			return 0, 0, err
		}
	}
	firstLSN = w.nextLSN
	var hdr [recordHeaderSize]byte
	for _, p := range payloads {
		lsn := w.nextLSN
		w.nextLSN++
		binary.BigEndian.PutUint64(hdr[0:8], lsn)
		binary.BigEndian.PutUint32(hdr[8:12], uint32(len(p)))
		binary.BigEndian.PutUint32(hdr[12:16], recordCRC(lsn, p))
		if _, err := w.w.Write(hdr[:]); err != nil {
			w.err = err
			return 0, 0, err
		}
		if _, err := w.w.Write(p); err != nil {
			w.err = err
			return 0, 0, err
		}
		w.size += recordHeaderSize + int64(len(p))
	}
	w.writeSeq++
	w.appends.Add(int64(len(payloads)))
	w.publishGaugesLocked()
	return w.writeSeq, firstLSN, nil
}

// waitSynced is the group-commit core: the first waiter to find no commit in
// flight becomes the committer; everyone else sleeps until the committer's
// single flush+fsync covers their writeSeq.
func (w *WAL) waitSynced(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncedSeq < seq && w.err == nil {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.writeSeq
		flushErr := w.w.Flush()
		f := w.f
		w.mu.Unlock()
		var syncErr error
		if flushErr == nil && !w.opts.noSync {
			start := time.Now()
			syncErr = f.Sync()
			w.fsyncs.Observe(time.Since(start))
		}
		w.mu.Lock()
		w.syncing = false
		switch {
		case flushErr != nil:
			w.err = flushErr
		case syncErr != nil:
			w.err = syncErr
		case target > w.syncedSeq:
			w.syncedSeq = target
		}
		w.cond.Broadcast()
	}
	return w.err
}

// rotateLocked seals the active segment (flush+fsync) and opens the next.
// Caller holds w.mu; rotation waits out any in-flight commit so the fsync
// never races a file handle swap.
func (w *WAL) rotateLocked() error {
	for w.syncing {
		w.cond.Wait()
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if !w.opts.noSync {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	w.syncedSeq = w.writeSeq // everything written so far is durable
	if err := w.f.Close(); err != nil {
		return err
	}
	w.cond.Broadcast()
	return w.newSegmentLocked(w.nextLSN)
}

func (w *WAL) newSegmentLocked(firstLSN uint64) error {
	path := filepath.Join(w.opts.Dir, fmt.Sprintf("%016x%s", firstLSN, segmentSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: wal segment: %w", err)
	}
	// Make the segment's directory entry durable so the file survives a
	// crash immediately after rotation.
	if !w.opts.noSync {
		if err := syncDir(w.opts.Dir); err != nil {
			f.Close()
			return err
		}
	}
	w.f = f
	w.w = bufio.NewWriterSize(f, 64<<10)
	w.size = 0
	w.segs = append(w.segs, segment{path: path, firstLSN: firstLSN})
	w.publishGaugesLocked()
	return nil
}

// Replay streams every durable record with LSN >= from, in order, to fn. A
// torn or corrupt record ends the replay cleanly at the last good record —
// the crash-recovery contract — and fn errors abort with that error. Replay
// must finish before the first append.
func (w *WAL) Replay(from uint64, fn func(lsn uint64, payload []byte) error) (int, error) {
	w.mu.Lock()
	segs := append([]segment(nil), w.segs...)
	w.mu.Unlock()
	n := 0
	for _, seg := range segs {
		stop, cnt, err := replaySegment(seg.path, from, fn)
		n += cnt
		if err != nil {
			return n, err
		}
		if stop {
			break // torn record: nothing after it is trustworthy
		}
	}
	return n, nil
}

// replaySegment feeds one segment's records to fn. stop reports that a
// torn/corrupt record ended the scan (so later segments must be skipped).
func replaySegment(path string, from uint64, fn func(uint64, []byte) error) (stop bool, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, 0, fmt.Errorf("durable: wal replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	header := make([]byte, recordHeaderSize)
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			return !errors.Is(err, io.EOF), n, nil
		}
		lsn := binary.BigEndian.Uint64(header[0:8])
		length := binary.BigEndian.Uint32(header[8:12])
		crc := binary.BigEndian.Uint32(header[12:16])
		if length > maxRecordBytes {
			return true, n, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return true, n, nil
		}
		if recordCRC(lsn, payload) != crc {
			return true, n, nil
		}
		if lsn >= from {
			if err := fn(lsn, payload); err != nil {
				return false, n, err
			}
			n++
		}
	}
}

// CompactBelow deletes whole segments all of whose records have LSN <= lsn
// (the snapshot's applied horizon). The active segment always survives. It
// returns the number of segments removed.
func (w *WAL) CompactBelow(lsn uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.segs) > 1 && w.segs[1].firstLSN <= lsn+1 {
		if err := os.Remove(w.segs[0].path); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("durable: wal compact: %w", err)
		}
		w.segs = w.segs[1:]
		removed++
	}
	if removed > 0 {
		w.publishGaugesLocked()
	}
	return removed, nil
}

// LastLSN returns the LSN of the most recently appended record (0 if none).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// TailRepairs returns how many torn-tail truncations OpenWAL performed when
// this log was opened. Zero after a clean shutdown and reopen.
func (w *WAL) TailRepairs() int64 {
	return w.tailRepairs.Value()
}

func (w *WAL) publishGaugesLocked() {
	w.segBytes.Set(w.size)
	w.segCount.Set(int64(len(w.segs)))
}

func (w *WAL) flushLoop() {
	defer close(w.flushDone)
	ticker := time.NewTicker(w.opts.flushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopFlush:
			return
		case <-ticker.C:
		}
		w.mu.Lock()
		dirty := w.syncedSeq < w.writeSeq && !w.closed
		w.mu.Unlock()
		if dirty {
			_ = w.Sync()
		}
	}
}

// Close flushes, fsyncs, and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	if w.stopFlush != nil {
		close(w.stopFlush)
		<-w.flushDone
	}
	err := w.Sync()
	w.mu.Lock()
	w.closed = true
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return err
}

// --- atomic file helpers (used by the store and broker snapshots) ---

// WriteFileAtomic writes data to path crash-safely: the bytes are written to
// a temp file which is fsynced, renamed over path, and the parent directory
// fsynced, so a crash at any point leaves either the old file or the new one
// — never a torn or missing file.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: fsync dir %s: %w", dir, err)
	}
	return nil
}
