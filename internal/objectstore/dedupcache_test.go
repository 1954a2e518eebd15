package objectstore

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// countingFetcher counts how many fetches reach the source.
type countingFetcher struct {
	src   *Store
	calls atomic.Int64
}

func (c *countingFetcher) Get(key string) ([]byte, error) {
	c.calls.Add(1)
	return c.src.Get(key)
}

// putObjects stores n distinct objects of size bytes and returns their keys;
// calls with the same size return the same objects.
func putObjects(t *testing.T, s *Store, n, size int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		b := bytes.Repeat([]byte{'.'}, size)
		copy(b, fmt.Sprint(size, "/", i))
		k, err := s.PutContent(b)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

func TestDedupCacheHitsAndEvictions(t *testing.T) {
	s := New()
	keys := putObjects(t, s, 5, 100)
	src := &countingFetcher{src: s}
	// Budget for three 100-byte objects; probation (30 bytes) holds only
	// its newest entry.
	d := NewDedupCache(src, 300)
	get := func(k string) {
		t.Helper()
		if _, err := d.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	fetched := func(k string) bool {
		t.Helper()
		before := src.calls.Load()
		get(k)
		return src.calls.Load() != before
	}

	for i := 0; i < 3; i++ {
		get(keys[0])
	}
	if got := src.calls.Load(); got != 1 {
		t.Fatalf("source fetches after repeated Get = %d, want 1", got)
	}
	if hits := d.Metrics.Counter("dedup_cache_hits").Value(); hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}

	// keys[0..2] are each read twice: as the next object arrives, each
	// leaves probation for the main LRU.
	get(keys[1])
	get(keys[1])
	get(keys[2])
	get(keys[2])
	if d.Len() != 3 || d.Bytes() != 300 {
		t.Fatalf("cache = %d objects / %d bytes, want 3 / 300", d.Len(), d.Bytes())
	}
	// keys[0] becomes the most recently used, so keys[1] is the LRU tail
	// that keys[2]'s promotion (when keys[3] arrives) pushes out.
	if fetched(keys[0]) {
		t.Fatal("keys[0] refetched while cached")
	}
	get(keys[3])
	if ev := d.Metrics.Counter("dedup_cache_evictions").Value(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if d.Len() != 3 || d.Bytes() != 300 {
		t.Fatalf("cache = %d objects / %d bytes, want 3 / 300", d.Len(), d.Bytes())
	}
	if !fetched(keys[1]) {
		t.Error("the LRU tail was not evicted")
	}
	// keys[3] was read once: keys[1]'s arrival sends it away rather than
	// promoting it, and the objects read twice stay.
	if ev := d.Metrics.Counter("dedup_cache_evictions").Value(); ev != 2 {
		t.Errorf("evictions = %d, want 2", ev)
	}
	for _, k := range []string{keys[0], keys[2]} {
		if fetched(k) {
			t.Errorf("a one-hit object displaced %s from the main LRU", k)
		}
	}
	if !fetched(keys[3]) {
		t.Error("a one-hit object stayed after leaving probation")
	}
}

// TestDedupCacheScanResistance: eight shared inputs interleaved with 1,000
// one-hit objects totalling ten times the budget. Every shared Get after its
// second is a hit, and the cache never holds more than probation plus the
// shared set.
func TestDedupCacheScanResistance(t *testing.T) {
	const budget = 1 << 20
	s := New()
	hot := putObjects(t, s, 8, 1<<10)
	scan := putObjects(t, s, 1000, budget/100)
	src := &countingFetcher{src: s}
	d := NewDedupCache(src, budget)
	reads := map[string]int{}
	for i, k := range scan {
		if _, err := d.Get(k); err != nil {
			t.Fatal(err)
		}
		h := hot[i%len(hot)]
		before := src.calls.Load()
		if _, err := d.Get(h); err != nil {
			t.Fatal(err)
		}
		if reads[h]++; reads[h] > 2 && src.calls.Load() != before {
			t.Fatalf("shared object %d: read %d missed", i%len(hot), reads[h])
		}
		if got, limit := d.Bytes(), int64(budget/10+len(hot)<<10); got > limit {
			t.Fatalf("after %d one-hit objects the cache holds %d bytes, want <= %d", i+1, got, limit)
		}
	}
}

// TestDedupCacheLargeFanOut: an input at 60 % of the budget — more than
// probation's tenth — read by 16 tasks in turn crosses the wire once.
func TestDedupCacheLargeFanOut(t *testing.T) {
	s := New()
	key := putObjects(t, s, 1, 600)[0]
	src := &countingFetcher{src: s}
	d := NewDedupCache(src, 1000)
	for i := 0; i < 16; i++ {
		if data, err := d.Get(key); err != nil || len(data) != 600 {
			t.Fatalf("get %d = %d bytes, %v", i, len(data), err)
		}
	}
	if got := src.calls.Load(); got != 1 {
		t.Errorf("source fetches = %d for 16 sequential gets, want 1", got)
	}
}

func TestDedupCacheSingleflight(t *testing.T) {
	s := New()
	key, err := s.PutContent(bytes.Repeat([]byte("x"), 1000))
	if err != nil {
		t.Fatal(err)
	}
	src := &countingFetcher{src: s}
	d := NewDedupCache(src, 1<<20)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err := d.Get(key)
			if err != nil || len(data) != 1000 {
				t.Errorf("get = %d bytes, %v", len(data), err)
			}
		}()
	}
	wg.Wait()
	// Singleflight coalescing: far fewer source fetches than callers. The
	// first caller may complete before the last starts, so allow a couple.
	if got := src.calls.Load(); got > 3 {
		t.Errorf("source fetches = %d for 16 concurrent gets, want <= 3", got)
	}
}

// gatedFetcher holds every fetch until release is closed.
type gatedFetcher struct {
	countingFetcher
	release chan struct{}
}

func (g *gatedFetcher) Get(key string) ([]byte, error) {
	<-g.release
	return g.countingFetcher.Get(key)
}

// TestDedupCacheCoalescedReadsCount: callers that waited on one fetch have
// asked for the object again, so it moves on to the main LRU and outlives a
// probation's worth of one-hit objects.
func TestDedupCacheCoalescedReadsCount(t *testing.T) {
	s := New()
	key := putObjects(t, s, 1, 100)[0]
	src := &gatedFetcher{countingFetcher: countingFetcher{src: s}, release: make(chan struct{})}
	d := NewDedupCache(src, 1000)
	waiting := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		if call, ok := d.inflight[key]; ok {
			return 1 + call.waiters
		}
		return 0
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Get(key); err != nil {
				t.Error(err)
			}
		}()
		for waiting() != i+1 {
			runtime.Gosched()
		}
	}
	close(src.release)
	wg.Wait()
	for _, k := range putObjects(t, s, 11, 101) { // more than the budget
		if _, err := d.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	before := src.calls.Load()
	if _, err := d.Get(key); err != nil {
		t.Fatal(err)
	}
	if got := src.calls.Load(); got != before {
		t.Error("an object four callers read at once left with the one-hit objects")
	}
}

func TestDedupCacheOversizedObjectNotRetained(t *testing.T) {
	s := New()
	key, err := s.PutContent(bytes.Repeat([]byte("y"), 500))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDedupCache(&countingFetcher{src: s}, 100)
	if _, err := d.Get(key); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Errorf("oversized object was retained (%d cached)", d.Len())
	}
}

func TestPutContentDedupSkipsReingest(t *testing.T) {
	s := New()
	data := bytes.Repeat([]byte("z"), 256)
	k1, err := s.PutContent(data)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s.PutContent(data)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("content keys differ: %s vs %s", k1, k2)
	}
	if puts := s.Metrics.Counter("puts").Value(); puts != 1 {
		t.Errorf("puts = %d, want 1 (second PutContent should dedup)", puts)
	}
	if hits := s.Metrics.Counter("dedup_hits").Value(); hits != 1 {
		t.Errorf("dedup_hits = %d, want 1", hits)
	}
}

func TestStoreReaders(t *testing.T) {
	s := New()
	payload := bytes.Repeat([]byte("stream"), 1000)
	n, err := s.PutReader("k", bytes.NewReader(payload), int64(len(payload)))
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("PutReader = %d, %v", n, err)
	}
	rd, size, err := s.GetReader("k")
	if err != nil || size != int64(len(payload)) {
		t.Fatalf("GetReader size = %d, %v", size, err)
	}
	got, _ := io.ReadAll(rd)
	rd.Close()
	if !bytes.Equal(got, payload) {
		t.Fatal("GetReader bytes differ from PutReader input")
	}
}

func TestOpenDirSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("durable"), 512)
	key, err := s.PutContent(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("plain/../key", []byte("odd key")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("content object after reopen: %d bytes, %v", len(got), err)
	}
	odd, err := s2.Get("plain/../key")
	if err != nil || string(odd) != "odd key" {
		t.Fatalf("odd-key object after reopen: %q, %v", odd, err)
	}

	// Deletes must remove the backing file too.
	if err := s2.Delete(key); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Get(key); err == nil {
		t.Error("deleted object resurrected after reopen")
	}
}

func TestHTTPStreamingAndHead(t *testing.T) {
	s := New()
	srv, err := ServeHTTP(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())

	payload := bytes.Repeat([]byte("http"), 4096)
	key, err := c.PutContent(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Exists(key); err != nil || !ok {
		t.Fatalf("Exists = %v, %v", ok, err)
	}
	if ok, err := c.Exists("deadbeef"); err != nil || ok {
		t.Fatalf("Exists(missing) = %v, %v", ok, err)
	}

	// Second PutContent of identical bytes must skip the body upload: the
	// HEAD probe finds it, so the server-side ingress counter stays put.
	ingress := s.Metrics.Counter("ingress_bytes").Value()
	if _, err := c.PutContent(payload); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics.Counter("ingress_bytes").Value(); got != ingress {
		t.Errorf("re-upload moved ingress_bytes %d -> %d, want unchanged", ingress, got)
	}

	rd, size, err := c.GetReader(key)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(payload)) {
		t.Errorf("GetReader Content-Length = %d, want %d", size, len(payload))
	}
	got, _ := io.ReadAll(rd)
	rd.Close()
	if !bytes.Equal(got, payload) {
		t.Fatal("streamed bytes differ")
	}

	// Streamed client put with explicit size.
	big := bytes.Repeat([]byte("s"), 1<<20)
	if err := c.PutReader("bigkey", bytes.NewReader(big), int64(len(big))); err != nil {
		t.Fatal(err)
	}
	if sz, err := s.Size("bigkey"); err != nil || sz != len(big) {
		t.Fatalf("streamed put size = %d, %v", sz, err)
	}
}

func TestDedupCachePassThroughWhenDisabled(t *testing.T) {
	s := New()
	key, err := s.PutContent([]byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	src := &countingFetcher{src: s}
	d := NewDedupCache(src, 0)
	for i := 0; i < 3; i++ {
		if _, err := d.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if got := src.calls.Load(); got != 3 {
		t.Errorf("disabled cache coalesced fetches (calls = %d, want 3)", got)
	}
}

func BenchmarkDedupCacheHit(b *testing.B) {
	s := New()
	key, err := s.PutContent(bytes.Repeat([]byte("b"), 1<<20))
	if err != nil {
		b.Fatal(err)
	}
	d := NewDedupCache(s, 8<<20)
	if _, err := d.Get(key); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleContentKey() {
	fmt.Println(ContentKey([]byte("hello")) == ContentKey([]byte("hello")))
	// Output: true
}
