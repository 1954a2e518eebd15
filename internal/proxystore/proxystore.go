// Package proxystore reimplements the ProxyStore model the paper adopts for
// pass-by-reference data movement (§V-B): objects live in the object store
// (in process or behind its HTTP client); producers replace large values
// with lightweight proxies; consumers resolve a proxy on first use, with
// per-process caching for objects shared by many tasks. Proxied task
// arguments and results bypass the cloud service's 10 MB payload limit
// entirely.
package proxystore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"globuscompute/internal/metrics"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/serialize"
)

// Common errors.
var (
	ErrNotFound     = errors.New("proxystore: object not found")
	ErrUnknownStore = errors.New("proxystore: unknown store")
)

// Backend is the object store proxied values live in; objectstore.Store and
// objectstore.Client both implement it.
type Backend interface {
	PutContent(data []byte) (string, error)
	Get(key string) ([]byte, error)
}

// Reference is the serializable proxy token that travels inside task
// payloads in place of the object (pass-by-reference).
type Reference struct {
	Store string `json:"ps_store"`
	Key   string `json:"ps_key"`
	Size  int    `json:"ps_size"`
}

// Store names an object-store backend and provides proxy/resolve with
// caching.
type Store struct {
	name    string
	objects Backend
	// cache holds recently resolved objects for reuse across tasks in the
	// same process. Keys are content hashes, so an entry is never stale.
	cache *objectstore.DedupCache

	Metrics *metrics.Registry
}

// NewStore builds a store over an object-store backend. cacheBytes is the
// resolve cache's byte budget (<=0 disables caching).
func NewStore(name string, objects Backend, cacheBytes int64) (*Store, error) {
	if name == "" {
		return nil, errors.New("proxystore: store requires a name")
	}
	if objects == nil {
		return nil, errors.New("proxystore: store requires an object store")
	}
	s := &Store{
		name: name, objects: objects,
		cache:   objectstore.NewDedupCache(objects, cacheBytes),
		Metrics: metrics.NewRegistry(),
	}
	s.cache.Metrics = s.Metrics // dedup_cache_hits / dedup_cache_misses
	return s, nil
}

// Name returns the store name used in references.
func (s *Store) Name() string { return s.name }

// Put serializes v (JSON envelope) into the object store and returns a
// proxy.
func (s *Store) Put(v any) (*Proxy, error) {
	data, err := serialize.Encode(v, serialize.Options{Codec: serialize.CodecJSON, Compress: true, CompressAbove: 4 << 10, Limit: 1 << 31})
	if err != nil {
		return nil, err
	}
	return s.PutBytes(data)
}

// PutBytes stores pre-serialized bytes under their content key.
func (s *Store) PutBytes(data []byte) (*Proxy, error) {
	key, err := s.objects.PutContent(data)
	if err != nil {
		return nil, err
	}
	s.Metrics.Counter("proxied").Inc()
	s.Metrics.Counter("proxied_bytes").Add(int64(len(data)))
	return &Proxy{ref: Reference{Store: s.name, Key: key, Size: len(data)}, store: s}, nil
}

// resolve fetches the bytes behind a reference through the cache.
func (s *Store) resolve(ref Reference) ([]byte, error) {
	data, err := s.cache.Get(ref.Key)
	if errors.Is(err, objectstore.ErrNotFound) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, ref.Key)
	}
	if err != nil {
		return nil, err
	}
	s.Metrics.Counter("resolves").Inc()
	return data, nil
}

// Proxy is the transparent-object-proxy analogue: a handle that resolves
// its target on first use and caches the resolution. (Go cannot intercept
// attribute access, so resolution is an explicit method — the factory
// indirection and the pass-by-reference wire format are preserved.)
type Proxy struct {
	ref   Reference
	store *Store

	once sync.Once
	data []byte
	err  error
}

// Reference returns the wire token for embedding in task payloads.
func (p *Proxy) Reference() Reference { return p.ref }

// Resolve fetches (once) and returns the serialized bytes.
func (p *Proxy) Resolve() ([]byte, error) {
	p.once.Do(func() {
		p.data, p.err = p.store.resolve(p.ref)
	})
	return p.data, p.err
}

// ResolveInto decodes the target into v.
func (p *Proxy) ResolveInto(v any) error {
	data, err := p.Resolve()
	if err != nil {
		return err
	}
	return serialize.Decode(data, v)
}

// --- registry ---

// Registry resolves references by store name; worker processes register the
// stores they can reach (factory lookup in the paper's terms).
type Registry struct {
	mu     sync.RWMutex
	stores map[string]*Store
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{stores: make(map[string]*Store)}
}

// Register adds a store.
func (r *Registry) Register(s *Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stores[s.name] = s
}

// Lookup finds a store.
func (r *Registry) Lookup(name string) (*Store, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.stores[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStore, name)
	}
	return s, nil
}

// ResolveReference fetches the bytes behind a wire reference.
func (r *Registry) ResolveReference(ref Reference) ([]byte, error) {
	s, err := r.Lookup(ref.Store)
	if err != nil {
		return nil, err
	}
	return s.resolve(ref)
}

// --- policy ---

// Policy decides which values get proxied, mirroring ProxyStore's
// size-based executor policy.
type Policy struct {
	// MinSize proxies serialized values at or above this many bytes.
	MinSize int
}

// ShouldProxy applies the policy to a serialized size.
func (p Policy) ShouldProxy(size int) bool {
	return p.MinSize > 0 && size >= p.MinSize
}

// MaybeProxy encodes v and either returns the inline JSON (small values) or
// stores it and returns the reference JSON (large values). The returned
// boolean reports whether a proxy was created.
func MaybeProxy(store *Store, policy Policy, v any) (json.RawMessage, bool, error) {
	inline, err := json.Marshal(v)
	if err != nil {
		return nil, false, err
	}
	if !policy.ShouldProxy(len(inline)) {
		return inline, false, nil
	}
	proxy, err := store.Put(v)
	if err != nil {
		return nil, false, err
	}
	refJSON, err := json.Marshal(proxy.Reference())
	if err != nil {
		return nil, false, err
	}
	return refJSON, true, nil
}

// MaybeResolve inspects raw JSON: if it is a proxy reference, it resolves
// through the registry and returns the original serialized value; otherwise
// it returns raw unchanged.
func MaybeResolve(reg *Registry, raw json.RawMessage) (json.RawMessage, bool, error) {
	var ref Reference
	if err := json.Unmarshal(raw, &ref); err != nil || ref.Store == "" || ref.Key == "" {
		return raw, false, nil
	}
	data, err := reg.ResolveReference(ref)
	if err != nil {
		return nil, true, err
	}
	var v any
	if err := serialize.Decode(data, &v); err != nil {
		return nil, true, err
	}
	out, err := json.Marshal(v)
	if err != nil {
		return nil, true, err
	}
	return out, true, nil
}
