package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// segments returns the number of on-disk segment files.
func (w *WAL) segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs)
}

func openTestWAL(t *testing.T, dir string, opts WALOptions) *WAL {
	t.Helper()
	opts.Dir = dir
	w, err := OpenWAL(opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

func collect(t *testing.T, w *WAL, from uint64) (lsns []uint64, payloads []string) {
	t.Helper()
	_, err := w.Replay(from, func(lsn uint64, p []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := w.LastLSN(); got != 10 {
		t.Fatalf("LastLSN = %d, want 10", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	lsns, payloads := collect(t, w2, 1)
	if len(lsns) != 10 {
		t.Fatalf("replayed %d records, want 10", len(lsns))
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("lsns[%d] = %d, want %d", i, lsn, i+1)
		}
		if want := fmt.Sprintf("rec-%d", i); payloads[i] != want {
			t.Fatalf("payloads[%d] = %q, want %q", i, payloads[i], want)
		}
	}
	// Recovery resumes the LSN sequence.
	if lsn, err := w2.Append([]byte("after")); err != nil || lsn != 11 {
		t.Fatalf("Append after reopen = (%d, %v), want (11, nil)", lsn, err)
	}
}

// activeSegment returns the path of the newest segment file.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d segs)", err, len(segs))
	}
	return segs[len(segs)-1].path
}

func TestWALTornTailTruncatedRecord(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-write: cut the final record's payload short.
	seg := activeSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	lsns, _ := collect(t, w2, 1)
	if len(lsns) != 4 {
		t.Fatalf("replayed %d records after torn tail, want 4", len(lsns))
	}
	// The torn record's LSN is reused: it was never durable.
	if lsn, err := w2.Append([]byte("replacement")); err != nil || lsn != 5 {
		t.Fatalf("Append = (%d, %v), want (5, nil)", lsn, err)
	}
	lsns, payloads := collect(t, w2, 1)
	if len(lsns) != 5 || payloads[4] != "replacement" {
		t.Fatalf("after repair+append: lsns=%v payloads=%v", lsns, payloads)
	}
}

func TestWALTornTailBitFlippedCRC(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip a bit in the final record's payload so its CRC no longer verifies.
	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x80
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	lsns, _ := collect(t, w2, 1)
	if len(lsns) != 4 {
		t.Fatalf("replayed %d records after bit flip, want 4", len(lsns))
	}
	if got := w2.LastLSN(); got != 4 {
		t.Fatalf("LastLSN = %d, want 4", got)
	}
}

func TestWALEmptyTrailingSegment(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A crash right after rotation leaves a zero-length next segment.
	empty := filepath.Join(dir, fmt.Sprintf("%016x%s", 4, segmentSuffix))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	lsns, _ := collect(t, w2, 1)
	if len(lsns) != 3 {
		t.Fatalf("replayed %d records, want 3", len(lsns))
	}
	if lsn, err := w2.Append([]byte("y")); err != nil || lsn != 4 {
		t.Fatalf("Append = (%d, %v), want (4, nil)", lsn, err)
	}
}

func TestWALGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := w.Append([]byte(fmt.Sprintf("w%d-%d", g, i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	lsns, _ := collect(t, w2, 1)
	if len(lsns) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(lsns), writers*perWriter)
	}
	seen := make(map[uint64]bool)
	for _, lsn := range lsns {
		if seen[lsn] {
			t.Fatalf("duplicate LSN %d", lsn)
		}
		seen[lsn] = true
	}
}

func TestWALSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{segmentBytes: 256, noSync: true})
	payload := make([]byte, 64)
	for i := 0; i < 40; i++ {
		if _, err := w.Append(payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if w.segments() < 3 {
		t.Fatalf("expected >=3 segments after 40 large appends, got %d", w.segments())
	}
	before := w.segments()
	removed, err := w.CompactBelow(w.LastLSN())
	if err != nil {
		t.Fatalf("CompactBelow: %v", err)
	}
	if removed == 0 || w.segments() != before-removed {
		t.Fatalf("CompactBelow removed %d, segments %d -> %d", removed, before, w.segments())
	}
	if w.segments() < 1 {
		t.Fatal("active segment must survive compaction")
	}
	// Records above the horizon still replay after compaction + reopen.
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	if lsn, err := w2.Append(payload); err != nil || lsn != 41 {
		t.Fatalf("Append after compaction = (%d, %v), want (41, nil)", lsn, err)
	}
}

func TestWALAppendAsyncDurableAfterSync(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{flushEvery: -1})
	if _, err := w.AppendAsync([]byte("async-1"), []byte("async-2")); err != nil {
		t.Fatalf("AppendAsync: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2 := openTestWAL(t, dir, WALOptions{})
	defer w2.Close()
	lsns, payloads := collect(t, w2, 1)
	if len(lsns) != 2 || payloads[1] != "async-2" {
		t.Fatalf("async records lost: lsns=%v payloads=%v", lsns, payloads)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic overwrite: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("read back: %q, %v", data, err)
	}
	// No temp litter left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("expected 1 file in dir, got %d", len(entries))
	}
}
