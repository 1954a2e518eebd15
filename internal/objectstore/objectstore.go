// Package objectstore is the S3 substitute: a keyed blob store used by the
// web service to hold task payloads and results that exceed the inline
// threshold, and by ProxyStore as the store its proxies point into. It
// offers an in-process API plus an HTTP server (PUT/GET/HEAD/DELETE
// /objects/<key>) for cross-process access, an optional file-backed mode
// (OpenDir) whose objects survive restarts, and a bounded LRU read-through
// cache (DedupCache) for endpoint-side fan-out dedup and ProxyStore
// resolves.
package objectstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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
// in-memory; OpenDir adds a file-backed mode where every object is also
// persisted to disk and reloaded on open, so content-addressed references
// held by tasks in a durable WAL stay resolvable across a restart.
type Store struct {
	mu      sync.RWMutex
	objects map[string][]byte
	closed  bool
	dir     string // "" = memory only
	// MaxObject bounds a single object size; 0 means unlimited.
	MaxObject int
	Metrics   *metrics.Registry
}

// New returns an empty in-memory store.
func New() *Store {
	return &Store{objects: make(map[string][]byte), Metrics: metrics.NewRegistry()}
}

// OpenDir returns a store whose objects are persisted under dir (one
// "<hex(key)>.obj" file per object, written atomically) and eagerly
// reloaded from it, so spilled payload/result references survive a process
// restart. The directory is created if missing.
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
		if e.IsDir() || !strings.HasSuffix(name, ".obj") {
			continue
		}
		rawKey, err := hex.DecodeString(strings.TrimSuffix(name, ".obj"))
		if err != nil {
			continue // foreign file; not one of ours
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("objectstore: reload %s: %w", name, err)
		}
		s.objects[string(rawKey)] = data
	}
	return s, nil
}

// objectPath maps a key to its backing file. Keys are hex-armored so any
// string key yields a safe filename.
func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, hex.EncodeToString([]byte(key))+".obj")
}

// persist writes data for key to the backing directory via temp+rename so a
// crash never leaves a truncated object.
func (s *Store) persist(key string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.objectPath(key))
}

// Put stores data under key, replacing any existing object.
func (s *Store) Put(key string, data []byte) error {
	return s.putOwned(key, append([]byte(nil), data...))
}

// putOwned stores data, taking ownership of the slice (no defensive copy).
func (s *Store) putOwned(key string, data []byte) error {
	if key == "" {
		return errors.New("objectstore: empty key")
	}
	if s.MaxObject > 0 && len(data) > s.MaxObject {
		return fmt.Errorf("objectstore: object %q size %d exceeds cap %d", key, len(data), s.MaxObject)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.dir != "" {
		if err := s.persist(key, data); err != nil {
			return fmt.Errorf("objectstore: persist %q: %w", key, err)
		}
	}
	s.objects[key] = data
	s.Metrics.Counter("puts").Inc()
	// "ingress_bytes" (not "bytes_in") so the exported counter reads
	// ingress_bytes_total with the unit suffix ahead of _total, per
	// Prometheus naming conventions.
	s.Metrics.Counter("ingress_bytes").Add(int64(len(data)))
	return nil
}

// PutReader streams r into the store under key, reading exactly once into
// the stored buffer (no second copy — sizeHint, when >= 0, pre-sizes it).
// Used by the HTTP server so a multi-MB PUT is not double-buffered.
func (s *Store) PutReader(key string, r io.Reader, sizeHint int64) (int64, error) {
	limit := int64(-1)
	if s.MaxObject > 0 {
		limit = int64(s.MaxObject)
	}
	data, err := readAllHint(r, sizeHint, limit)
	if err != nil {
		return 0, fmt.Errorf("objectstore: put %q: %w", key, err)
	}
	if err := s.putOwned(key, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
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
	s.mu.RLock()
	_, exists := s.objects[key]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return "", ErrClosed
	}
	if exists {
		s.Metrics.Counter("dedup_hits").Inc()
		return key, nil
	}
	if err := s.Put(key, data); err != nil {
		return "", err
	}
	return key, nil
}

// Get returns a copy of the object stored under key.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	data, ok := s.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	s.Metrics.Counter("gets").Inc()
	s.Metrics.Counter("egress_bytes").Add(int64(len(data)))
	return append([]byte(nil), data...), nil
}

// GetReader returns a streaming reader over the object under key and its
// size, without copying the stored bytes. The stored slice is never
// mutated after Put, so reading concurrently with other operations is safe.
func (s *Store) GetReader(key string) (io.ReadCloser, int64, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, 0, ErrClosed
	}
	data, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	s.Metrics.Counter("gets").Inc()
	s.Metrics.Counter("egress_bytes").Add(int64(len(data)))
	return io.NopCloser(bytes.NewReader(data)), int64(len(data)), nil
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
	delete(s.objects, key)
	if s.dir != "" {
		_ = os.Remove(s.objectPath(key))
	}
	s.Metrics.Counter("deletes").Inc()
	return nil
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
	data, ok := s.objects[key]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return len(data), nil
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
	var n int64
	for _, d := range s.objects {
		n += int64(len(d))
	}
	return n
}

// Close marks the store closed; subsequent operations fail. File-backed
// objects stay on disk for the next OpenDir.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.objects = nil
}

// Server exposes a Store over HTTP, mimicking presigned-URL style access:
//
//	PUT    /objects/<key>   store body (streamed; Content-Length pre-sizes)
//	GET    /objects/<key>   fetch (streamed with Content-Length)
//	HEAD   /objects/<key>   existence + size probe (dedup fast path)
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
		// Stream the body straight into the stored buffer — no ReadAll-
		// then-copy double buffering for multi-MB payloads.
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
		size, err := s.store.Size(key)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(size))
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
