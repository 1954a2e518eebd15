// Package objectstore is the S3 substitute: a keyed blob store used by the
// web service to hold task payloads and results that exceed the inline
// threshold, and by ProxyStore as the store its proxies point into. It
// offers an in-process API plus an HTTP server (PUT/GET/HEAD/DELETE
// /objects/<key>) for cross-process access, an optional file-backed mode
// (OpenDir) that keeps only an index in memory, survives restarts and is
// swept with the task rows, and a read-through cache whose budget goes to
// objects read more than once — a probation FIFO in front of an LRU
// (DedupCache) — for endpoint-side fan-out dedup and ProxyStore resolves.
package objectstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/metrics"
)

// Common errors.
var (
	ErrNotFound = errors.New("objectstore: key not found")
	ErrClosed   = errors.New("objectstore: closed")
)

// Store is a blob store safe for concurrent use. By default it is purely
// in-memory. OpenDir adds a file-backed mode in which memory holds only an
// index (key -> size) and the bytes live in one file per object, so
// content-addressed references held by tasks in a durable WAL stay
// resolvable across a restart and the service never holds user data on its
// heap: reads are served from the files (the page cache is the hot cache),
// puts stream to disk.
type Store struct {
	mu      sync.RWMutex
	objects map[string]object
	bytes   int64 // sum of the indexed sizes
	closed  bool
	dir     string // "" = memory only
	// MaxObject bounds a single object size; 0 means unlimited.
	MaxObject int
	Metrics   *metrics.Registry
}

// object is one index entry. data is nil in a file-backed store.
type object struct {
	size int64
	data []byte
}

// tempPrefix names a put in progress: the body is written and fsynced under
// this name, then renamed to its object file.
const tempPrefix = ".put-"

// New returns an empty in-memory store.
func New() *Store {
	s := &Store{objects: make(map[string]object), Metrics: metrics.NewRegistry()}
	s.gaugesLocked() // exported from the first scrape on, not the first put
	return s
}

// OpenDir returns a store whose objects live under dir, one
// "<hex(key)>.obj" file per object, written atomically, so spilled
// payload/result references survive a process restart. The index is rebuilt
// from the file names and sizes alone — no object is read — and temp files a
// killed process left mid-put are removed. The directory is created if
// missing.
func OpenDir(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("objectstore: open %s: %w", dir, err)
	}
	s := New()
	s.dir = dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("objectstore: open %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() {
			continue
		}
		if strings.HasPrefix(name, tempPrefix) {
			_ = os.Remove(filepath.Join(dir, name)) // best effort: the next open retries
			continue
		}
		if !strings.HasSuffix(name, ".obj") {
			continue
		}
		rawKey, err := hex.DecodeString(strings.TrimSuffix(name, ".obj"))
		if err != nil {
			continue // foreign file; not one of ours
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("objectstore: open %s: %w", name, err)
		}
		s.setLocked(string(rawKey), object{size: info.Size()})
	}
	return s, nil
}

// objectPath maps a key to its backing file. Keys are hex-armored so any
// string key yields a safe filename.
func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, hex.EncodeToString([]byte(key))+".obj")
}

// setLocked indexes obj under key, replacing any previous entry.
func (s *Store) setLocked(key string, obj object) {
	s.bytes += obj.size - s.objects[key].size
	s.objects[key] = obj
	s.gaugesLocked()
}

// dropLocked removes key from the index and, file-backed, unlinks its file.
// Readers that already hold the file open keep reading it to EOF.
func (s *Store) dropLocked(key string) {
	s.bytes -= s.objects[key].size
	delete(s.objects, key)
	if s.dir != "" {
		_ = os.Remove(s.objectPath(key)) // the index no longer names it
	}
	s.gaugesLocked()
}

func (s *Store) gaugesLocked() {
	s.Metrics.Gauge("objects").Set(int64(len(s.objects)))
	s.Metrics.Gauge("bytes").Set(s.bytes)
}

// stage writes r to a temp file in the store directory, fsyncs it and
// returns its name and length — everything a put does that takes time,
// done before any lock is taken. limit >= 0 rejects inputs beyond limit
// bytes. On error nothing is left behind.
func (s *Store) stage(r io.Reader, limit int64) (name string, n int64, err error) {
	tmp, err := os.CreateTemp(s.dir, tempPrefix+"*")
	if err != nil {
		return "", 0, err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if limit >= 0 {
		r = io.LimitReader(r, limit+1)
	}
	if n, err = io.Copy(tmp, r); err != nil {
		return "", 0, err
	}
	if limit >= 0 && n > limit {
		return "", 0, fmt.Errorf("exceeds %d byte cap", limit)
	}
	if err = tmp.Sync(); err != nil {
		return "", 0, err
	}
	if err = tmp.Close(); err != nil {
		return "", 0, err
	}
	return tmp.Name(), n, nil
}

// commit publishes obj under key; staged, when set, is the temp file that
// becomes the object's file. The rename shares the lock with the index
// update (and with Delete and Sweep, which unlink under it), so the index
// never names a file that is gone. Concurrent puts of one content-addressed
// key are idempotent: the later rename replaces identical bytes.
func (s *Store) commit(key string, obj object, staged string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		if staged != "" {
			os.Remove(staged)
		}
		return ErrClosed
	}
	if staged != "" {
		if err := os.Rename(staged, s.objectPath(key)); err != nil {
			os.Remove(staged)
			return fmt.Errorf("objectstore: persist %q: %w", key, err)
		}
	}
	s.setLocked(key, obj)
	s.Metrics.Counter("puts").Inc()
	// "ingress_bytes" (not "bytes_in") so the exported counter reads
	// ingress_bytes_total with the unit suffix ahead of _total, per
	// Prometheus naming conventions.
	s.Metrics.Counter("ingress_bytes").Add(obj.size)
	return nil
}

// Put stores data under key, replacing any existing object. A memory store
// keeps its own copy; a file-backed one only writes the bytes out.
func (s *Store) Put(key string, data []byte) error {
	if key == "" {
		return errors.New("objectstore: empty key")
	}
	if s.MaxObject > 0 && len(data) > s.MaxObject {
		return fmt.Errorf("objectstore: object %q size %d exceeds cap %d", key, len(data), s.MaxObject)
	}
	if s.dir == "" {
		return s.commit(key, object{size: int64(len(data)), data: append([]byte(nil), data...)}, "")
	}
	staged, n, err := s.stage(bytes.NewReader(data), -1)
	if err != nil {
		return fmt.Errorf("objectstore: persist %q: %w", key, err)
	}
	return s.commit(key, object{size: n}, staged)
}

// PutReader streams r into the store under key, reading it exactly once:
// into the stored buffer of a memory store (sizeHint, when >= 0, pre-sizes
// it), straight into the object's file otherwise. Used by the HTTP server
// so a multi-MB PUT is never double-buffered.
func (s *Store) PutReader(key string, r io.Reader, sizeHint int64) (int64, error) {
	if key == "" {
		return 0, errors.New("objectstore: empty key")
	}
	limit := int64(-1)
	if s.MaxObject > 0 {
		limit = int64(s.MaxObject)
	}
	obj, staged := object{}, ""
	if s.dir == "" {
		data, err := readAllHint(r, sizeHint, limit)
		if err != nil {
			return 0, fmt.Errorf("objectstore: put %q: %w", key, err)
		}
		obj = object{size: int64(len(data)), data: data}
	} else {
		name, n, err := s.stage(r, limit)
		if err != nil {
			return 0, fmt.Errorf("objectstore: put %q: %w", key, err)
		}
		obj, staged = object{size: n}, name
	}
	if err := s.commit(key, obj, staged); err != nil {
		return 0, err
	}
	return obj.size, nil
}

// readAllHint reads r to EOF into a buffer pre-sized by hint. limit >= 0
// rejects inputs beyond limit bytes.
func readAllHint(r io.Reader, hint, limit int64) ([]byte, error) {
	if limit >= 0 {
		lr := io.LimitReader(r, limit+1)
		data, err := io.ReadAll(lr)
		if err != nil {
			return nil, err
		}
		if int64(len(data)) > limit {
			return nil, fmt.Errorf("exceeds %d byte cap", limit)
		}
		return data, nil
	}
	var buf bytes.Buffer
	if hint > 0 {
		buf.Grow(int(hint))
	}
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ContentKey returns the store key for data: its SHA-256 hex digest.
func ContentKey(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// PutContent stores data under its SHA-256 hex digest and returns the key.
// Identical content deduplicates to the same key — and skips the write
// entirely when the key is already present (counted as dedup_hits).
func (s *Store) PutContent(data []byte) (string, error) {
	key := ContentKey(data)
	if _, ok := s.probe(key); ok {
		s.Metrics.Counter("dedup_hits").Inc()
		return key, nil
	}
	if err := s.Put(key, data); err != nil {
		return "", err
	}
	return key, nil
}

// probe is the dedup probe: it answers from the index whether key is stored
// and how large it is, and marks a file-backed hit as just used by touching
// its file. The touch is what lets a caller reference an object it did not
// write: Sweep unlinks only files last used before its cutoff, and takes
// the write lock for each check-and-unlink, so a probe either lands before
// (Sweep sees the fresh mtime and keeps the file) or after (the probe
// misses and the caller writes the object again).
func (s *Store) probe(key string) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[key]
	if ok && s.dir != "" {
		now := time.Now()
		ok = os.Chtimes(s.objectPath(key), now, now) == nil
	}
	return obj.size, ok
}

// lookup returns the index entry for key.
func (s *Store) lookup(key string) (object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return object{}, ErrClosed
	}
	obj, ok := s.objects[key]
	if !ok {
		return object{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return obj, nil
}

// Get returns the object stored under key in a slice the caller owns.
func (s *Store) Get(key string) ([]byte, error) {
	obj, err := s.lookup(key)
	if err != nil {
		return nil, err
	}
	var data []byte
	if s.dir == "" {
		data = append([]byte(nil), obj.data...)
	} else if data, err = os.ReadFile(s.objectPath(key)); err != nil {
		return nil, readErr(key, err)
	}
	s.Metrics.Counter("gets").Inc()
	s.Metrics.Counter("egress_bytes").Add(int64(len(data)))
	return data, nil
}

// GetReader returns a streaming reader over the object under key and its
// size, without copying it: a file-backed store hands out the open
// *os.File, so an io.Copy to a socket becomes sendfile, and a reader opened
// before a Delete still reads to EOF. A memory store's slice is never
// mutated after Put, so reading it concurrently with other operations is
// safe.
func (s *Store) GetReader(key string) (io.ReadCloser, int64, error) {
	obj, err := s.lookup(key)
	if err != nil {
		return nil, 0, err
	}
	var rd io.ReadCloser = io.NopCloser(bytes.NewReader(obj.data))
	size := obj.size
	if s.dir != "" {
		// The size comes from the file that was opened, not the index: a
		// replacing Put may land between the two.
		f, err := os.Open(s.objectPath(key))
		if err != nil {
			return nil, 0, readErr(key, err)
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, 0, readErr(key, err)
		}
		rd, size = f, info.Size()
	}
	s.Metrics.Counter("gets").Inc()
	s.Metrics.Counter("egress_bytes").Add(size)
	return rd, size, nil
}

// readErr maps a failed file read: a file that vanished after the index
// lookup lost a race with Delete or Sweep and reads as not found.
func readErr(key string, err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return fmt.Errorf("objectstore: read %q: %w", key, err)
}

// Delete removes the object under key. Deleting a missing key returns
// ErrNotFound.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.objects[key]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	s.dropLocked(key)
	s.Metrics.Counter("deletes").Inc()
	return nil
}

// FileBacked reports whether the store keeps its objects in files, the only
// store Sweep has anything to do for.
func (s *Store) FileBacked() bool { return s.dir != "" }

// Sweep unlinks every file-backed object that is not in live and was last
// used (written, or hit by a dedup probe) before cutoff, and returns how
// many it removed. It is the mark-and-sweep half of object lifetime: the
// caller marks (the keys its task rows still reference), the file mtime is
// the last-use guard for objects about to be referenced — see probe. A
// memory store has no last-use record and is left alone.
func (s *Store) Sweep(live map[string]struct{}, cutoff time.Time) int {
	if s.dir == "" {
		return 0
	}
	s.mu.RLock()
	var dead []string
	for key := range s.objects {
		if _, ok := live[key]; !ok {
			dead = append(dead, key)
		}
	}
	s.mu.RUnlock()
	swept := 0
	for _, key := range dead {
		s.mu.Lock()
		if _, ok := s.objects[key]; ok && !s.closed {
			if info, err := os.Stat(s.objectPath(key)); err == nil && info.ModTime().Before(cutoff) {
				s.dropLocked(key)
				swept++
			}
		}
		s.mu.Unlock()
	}
	s.Metrics.Counter("swept").Add(int64(swept))
	return swept
}

// Exists reports whether key is present.
func (s *Store) Exists(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.objects[key]
	return ok
}

// Size returns the stored size of key, or ErrNotFound.
func (s *Store) Size(key string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[key]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return int(obj.size), nil
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// TotalBytes returns the sum of stored object sizes.
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Close marks the store closed; subsequent operations fail. File-backed
// objects stay on disk for the next OpenDir.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.objects, s.bytes = nil, 0
}

// Server exposes a Store over HTTP, mimicking presigned-URL style access:
//
//	PUT    /objects/<key>   store body (streamed; Content-Length pre-sizes)
//	GET    /objects/<key>   fetch (streamed with Content-Length)
//	HEAD   /objects/<key>   existence + size probe (dedup fast path; a hit
//	                        counts as a use, see Store.Sweep)
//	DELETE /objects/<key>   remove
//	GET    /healthz         liveness
type Server struct {
	store *Store
	http  *http.Server
	ln    net.Listener
}

// ServeHTTP starts an HTTP front end for store on addr.
func ServeHTTP(store *Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("objectstore: listen: %w", err)
	}
	mux := http.NewServeMux()
	s := &Server{store: store, ln: ln}
	mux.HandleFunc("/objects/", s.handleObject)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.http.Serve(ln)
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the HTTP server.
func (s *Server) Close() { s.http.Close() }

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/objects/")
	if key == "" || strings.Contains(key, "/") {
		http.Error(w, "bad key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut:
		// Stream the body straight into the store — no ReadAll-then-copy
		// double buffering for multi-MB payloads.
		if _, err := s.store.PutReader(key, io.LimitReader(r.Body, 1<<30), r.ContentLength); err != nil {
			http.Error(w, err.Error(), http.StatusInsufficientStorage)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		rd, size, err := s.store.GetReader(key)
		if errors.Is(err, ErrNotFound) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer rd.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		io.Copy(w, rd)
	case http.MethodHead:
		size, ok := s.store.probe(key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		w.WriteHeader(http.StatusOK)
	case http.MethodDelete:
		err := s.store.Delete(key)
		if errors.Is(err, ErrNotFound) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// Client accesses a remote object store server.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at addr (host:port).
func NewClient(addr string) *Client {
	return &Client{base: "http://" + addr, hc: &http.Client{Timeout: 30 * time.Second}}
}

// Put stores data under key on the remote store. bytes.Reader gives the
// request a Content-Length so the server pre-sizes its buffer.
func (c *Client) Put(key string, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, c.base+"/objects/"+key, bytes.NewReader(data))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("objectstore: put: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("objectstore: put %q: status %s", key, resp.Status)
	}
	return nil
}

// PutReader streams r (size bytes) to the remote store under key without
// buffering the whole object client-side.
func (c *Client) PutReader(key string, r io.Reader, size int64) error {
	req, err := http.NewRequest(http.MethodPut, c.base+"/objects/"+key, r)
	if err != nil {
		return err
	}
	if size >= 0 {
		req.ContentLength = size
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("objectstore: put: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("objectstore: put %q: status %s", key, resp.Status)
	}
	return nil
}

// PutContent stores data under its content key, probing with HEAD first so
// re-uploads of content the store already holds (fan-out inputs, retried
// results) skip the body transfer entirely.
func (c *Client) PutContent(data []byte) (string, error) {
	key := ContentKey(data)
	if ok, err := c.Exists(key); err == nil && ok {
		return key, nil
	}
	if err := c.Put(key, data); err != nil {
		return "", err
	}
	return key, nil
}

// Exists probes the remote store for key with a HEAD request.
func (c *Client) Exists(key string) (bool, error) {
	req, err := http.NewRequest(http.MethodHead, c.base+"/objects/"+key, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, fmt.Errorf("objectstore: head: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("objectstore: head %q: status %s", key, resp.Status)
	}
}

// Get fetches the object under key from the remote store.
func (c *Client) Get(key string) ([]byte, error) {
	rd, size, err := c.GetReader(key)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	return readAllHint(rd, size, -1)
}

// GetReader streams the object under key from the remote store; the
// returned size is -1 when the server did not send Content-Length.
func (c *Client) GetReader(key string) (io.ReadCloser, int64, error) {
	resp, err := c.hc.Get(c.base + "/objects/" + key)
	if err != nil {
		return nil, 0, fmt.Errorf("objectstore: get: %w", err)
	}
	if resp.StatusCode == http.StatusNotFound {
		resp.Body.Close()
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, 0, fmt.Errorf("objectstore: get %q: status %s", key, resp.Status)
	}
	return resp.Body, resp.ContentLength, nil
}

// Delete removes the object under key on the remote store.
func (c *Client) Delete(key string) error {
	req, err := http.NewRequest(http.MethodDelete, c.base+"/objects/"+key, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("objectstore: delete: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("objectstore: delete %q: status %s", key, resp.Status)
	}
	return nil
}
