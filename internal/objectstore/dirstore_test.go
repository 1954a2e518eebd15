package objectstore

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openDir(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// blob returns n deterministic bytes that differ per seed.
func blob(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*31 + i*7 + i>>8)
	}
	return b
}

// diskState lists the store directory: object files (count, bytes) and
// leftover temp files.
func diskState(t *testing.T, dir string) (objs int, size int64, temps []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.Name(), tempPrefix):
			temps = append(temps, e.Name())
		case strings.HasSuffix(e.Name(), ".obj"):
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			objs++
			size += info.Size()
		}
	}
	return objs, size, temps
}

// checkIndexMatchesDisk asserts the in-memory index, its running totals, the
// exported gauges and the directory all agree.
func checkIndexMatchesDisk(t *testing.T, s *Store) {
	t.Helper()
	objs, size, temps := diskState(t, s.dir)
	if len(temps) != 0 {
		t.Errorf("temp files left behind: %v", temps)
	}
	if s.Len() != objs || s.TotalBytes() != size {
		t.Errorf("index has %d objects / %d bytes, disk has %d / %d", s.Len(), s.TotalBytes(), objs, size)
	}
	if g := s.Metrics.Gauge("objects").Value(); g != int64(objs) {
		t.Errorf("objects gauge = %d, want %d", g, objs)
	}
	if g := s.Metrics.Gauge("bytes").Value(); g != size {
		t.Errorf("bytes gauge = %d, want %d", g, size)
	}
}

func TestOpenDirReapsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	keys := make([]string, 3)
	for i := range keys {
		key, err := s.PutContent(blob(i, 4096))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
	}
	s.Close()

	// A process SIGKILLed mid-put leaves its temp file: a complete one, a
	// truncated one. Files that are not ours must be left alone.
	plant := map[string][]byte{
		tempPrefix + "123":       blob(9, 4096),
		tempPrefix + "truncated": nil,
		"notes.txt":              []byte("operator's file"),
		"not-hex.obj":            []byte("foreign object-looking file"),
	}
	for name, data := range plant {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openDir(t, dir)
	for name := range plant {
		_, err := os.Stat(filepath.Join(dir, name))
		ours := strings.HasPrefix(name, tempPrefix)
		if ours && !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale temp %s survived open (stat: %v)", name, err)
		}
		if !ours && err != nil {
			t.Errorf("foreign file %s was touched: %v", name, err)
		}
	}
	if s2.Len() != len(keys) {
		t.Errorf("Len = %d, want %d (foreign .obj must not be indexed)", s2.Len(), len(keys))
	}
	for i, key := range keys {
		got, err := s2.Get(key)
		if err != nil || !bytes.Equal(got, blob(i, 4096)) {
			t.Errorf("object %d after reap: %d bytes, %v", i, len(got), err)
		}
	}
}

// TestOpenDirIndexesWithoutReading: reopening rebuilds sizes and counts from
// the directory alone, and the bytes are first read by the first Get — shown
// by swapping a file's content (same length) after the open.
func TestOpenDirIndexesWithoutReading(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	data := blob(1, 200_000)
	key, err := s.PutContent(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("small", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openDir(t, dir)
	if s2.Len() != 2 || s2.TotalBytes() != 200_003 {
		t.Fatalf("reopened index: %d objects / %d bytes, want 2 / 200003", s2.Len(), s2.TotalBytes())
	}
	if n, err := s2.Size(key); err != nil || n != len(data) {
		t.Fatalf("Size = %d, %v", n, err)
	}
	checkIndexMatchesDisk(t, s2)
	if got := s2.Metrics.Counter("egress_bytes").Value(); got != 0 {
		t.Errorf("open counted %d egress bytes", got)
	}
	got, err := s2.Get(key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("first Get after reopen: %d bytes, %v", len(got), err)
	}

	swapped := blob(2, len(data))
	if err := os.WriteFile(s2.objectPath(key), swapped, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(key); err != nil || !bytes.Equal(got, swapped) {
		t.Error("Get did not come from the file: the store holds a copy of the bytes")
	}
}

func TestDirGetReaderIsTheFile(t *testing.T) {
	s := openDir(t, t.TempDir())
	data := blob(3, 200_000)
	key, err := s.PutContent(data)
	if err != nil {
		t.Fatal(err)
	}
	rd, size, err := s.GetReader(key)
	if err != nil || size != int64(len(data)) {
		t.Fatalf("GetReader = %d, %v", size, err)
	}
	// The HTTP server's io.Copy only becomes sendfile for an *os.File.
	if _, ok := rd.(*os.File); !ok {
		t.Errorf("GetReader returned %T, want *os.File", rd)
	}

	// A reader opened before a Delete still reads to EOF.
	half := make([]byte, len(data)/2)
	if _, err := io.ReadFull(rd, half); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetReader(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetReader after delete = %v, want ErrNotFound", err)
	}
	rest, err := io.ReadAll(rd)
	rd.Close()
	if err != nil || !bytes.Equal(append(half, rest...), data) {
		t.Errorf("reader opened before Delete: %d+%d bytes, %v", len(half), len(rest), err)
	}
	checkIndexMatchesDisk(t, s)
}

func TestDirMaxObjectRefusesStreamedPut(t *testing.T) {
	s := openDir(t, t.TempDir())
	s.MaxObject = 1000
	if _, err := s.PutReader("big", bytes.NewReader(blob(1, 1001)), -1); err == nil {
		t.Error("oversize streamed PutReader succeeded")
	}
	if err := s.Put("big", blob(1, 1001)); err == nil {
		t.Error("oversize Put succeeded")
	}
	if s.Exists("big") {
		t.Error("refused object is indexed")
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("refused put left %d files behind (first: %s)", len(entries), entries[0].Name())
	}
	if n, err := s.PutReader("fits", bytes.NewReader(blob(1, 1000)), -1); err != nil || n != 1000 {
		t.Errorf("at-limit PutReader = %d, %v", n, err)
	}
	checkIndexMatchesDisk(t, s)
}

// TestDirConcurrentPutGetDelete hammers one file-backed store from many
// goroutines: identical blobs (every goroutine puts the shared set), distinct
// blobs, reads through both read paths, and deletes racing all of it. Every
// read that succeeds must return exactly the bytes of its content key.
func TestDirConcurrentPutGetDelete(t *testing.T) {
	const (
		workers = 6
		rounds  = 12
		size    = 200_000
	)
	s := openDir(t, t.TempDir())
	shared := [][]byte{blob(1000, size), blob(1001, size), blob(1002, size)}

	verify := func(key string, got []byte, err error) {
		if errors.Is(err, ErrNotFound) {
			return // lost a race with a Delete; the next put brings it back
		}
		if err != nil {
			t.Errorf("read %s: %v", key, err)
			return
		}
		if ContentKey(got) != key {
			t.Errorf("read %s returned %d bytes hashing to %s", key, len(got), ContentKey(got))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				same := shared[(w+r)%len(shared)]
				key, err := s.PutContent(same)
				if err != nil {
					t.Errorf("PutContent(shared): %v", err)
					return
				}
				got, err := s.Get(key)
				verify(key, got, err)

				own, err := s.PutContent(blob(w*rounds+r, size))
				if err != nil {
					t.Errorf("PutContent(own): %v", err)
					return
				}
				if rd, _, err := s.GetReader(own); err != nil {
					t.Errorf("GetReader(own): %v", err)
				} else {
					got, err := io.ReadAll(rd)
					rd.Close()
					verify(own, got, err)
				}
				switch r % 3 {
				case 0:
					if err := s.Delete(key); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("Delete(shared): %v", err)
					}
				case 1:
					if err := s.Delete(own); err != nil {
						t.Errorf("Delete(own): %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	checkIndexMatchesDisk(t, s)
	// Whatever the index still names resolves to its own content.
	s.mu.RLock()
	keys := make([]string, 0, len(s.objects))
	for key := range s.objects {
		keys = append(keys, key)
	}
	s.mu.RUnlock()
	for _, key := range keys {
		got, err := s.Get(key)
		if err != nil || ContentKey(got) != key {
			t.Errorf("indexed object %s: %d bytes, %v", key, len(got), err)
		}
	}
}

// age sets the last-use time of key's file to d ago.
func age(t *testing.T, s *Store, key string, d time.Duration) {
	t.Helper()
	old := time.Now().Add(-d)
	if err := os.Chtimes(s.objectPath(key), old, old); err != nil {
		t.Fatal(err)
	}
}

func TestSweep(t *testing.T) {
	s := openDir(t, t.TempDir())
	srv, err := ServeHTTP(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())

	put := func(name string) string {
		key, err := s.PutContent([]byte(name + strings.Repeat("-", 100)))
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	live, dead, young := put("live"), put("dead"), put("young")
	hit, probed := put("dedup-hit"), put("head-probed")
	for _, key := range []string{live, dead, hit, probed} {
		age(t, s, key, time.Hour)
	}
	// A local dedup hit and a remote HEAD probe both mark the object used:
	// their caller is about to reference it from a task row.
	if key, err := s.PutContent([]byte("dedup-hit" + strings.Repeat("-", 100))); err != nil || key != hit {
		t.Fatalf("PutContent(dup) = %s, %v", key, err)
	}
	if ok, err := c.Exists(probed); err != nil || !ok {
		t.Fatalf("Exists = %v, %v", ok, err)
	}

	n := s.Sweep(map[string]struct{}{live: {}}, time.Now().Add(-time.Minute))
	if n != 1 {
		t.Errorf("Sweep removed %d objects, want 1", n)
	}
	if s.Exists(dead) {
		t.Error("old unreferenced object survived the sweep")
	}
	for name, key := range map[string]string{"live": live, "young": young, "dedup-hit": hit, "head-probed": probed} {
		if _, err := s.Get(key); err != nil {
			t.Errorf("%s object swept: %v", name, err)
		}
	}
	if got := s.Metrics.Counter("swept").Value(); got != 1 {
		t.Errorf("swept counter = %d, want 1", got)
	}
	checkIndexMatchesDisk(t, s)

	// A put after the sweep writes the object again.
	if key := put("dead"); key != dead || !s.Exists(dead) {
		t.Error("swept object could not be stored again")
	}

	// The memory store keeps no last-use record and is never swept.
	m := New()
	m.Put("k", []byte("v"))
	if n := m.Sweep(nil, time.Now().Add(time.Hour)); n != 0 || !m.Exists("k") {
		t.Errorf("memory store swept %d objects", n)
	}
}

// TestSweepRacesDedupHit: an object PutContent reported as stored stays
// resolvable for the whole retention after that call, however a sweep
// interleaves with the dedup probe — either the probe's touch saves the file
// or the probe misses and the bytes are written again. The object is aged
// before every put, so it is always a candidate the sweeper wants.
func TestSweepRacesDedupHit(t *testing.T) {
	const retention = 2 * time.Second // far longer than put-to-get below
	s := openDir(t, t.TempDir())
	data := []byte("hot" + strings.Repeat("-", 1000))
	path := s.objectPath(ContentKey(data))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Sweep(nil, time.Now().Add(-retention))
			}
		}
	}()
	hits := s.Metrics.Counter("dedup_hits")
	for i := 0; i < 2000; i++ {
		old := time.Now().Add(-time.Hour)
		_ = os.Chtimes(path, old, old) // fails when the sweeper just took the file
		key, err := s.PutContent(data)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get(key); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round %d: PutContent returned %s but Get = %d bytes, %v", i, key, len(got), err)
		}
	}
	close(stop)
	wg.Wait()
	if hits.Value() == 0 || s.Metrics.Counter("swept").Value() == 0 {
		t.Errorf("race not exercised: %d dedup hits, %d swept", hits.Value(), s.Metrics.Counter("swept").Value())
	}
	checkIndexMatchesDisk(t, s)
}
