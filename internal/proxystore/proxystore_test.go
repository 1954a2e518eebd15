package proxystore

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"globuscompute/internal/objectstore"
)

// TestConnectorRoundTrip drives a Store over both ways of reaching the
// object store — in process and through its HTTP client: put, resolve,
// and, once the object is deleted, the backend's not-found surfacing as
// ErrNotFound.
func TestConnectorRoundTrip(t *testing.T) {
	objects := objectstore.New()
	srv, err := objectstore.ServeHTTP(objects, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	type deleter interface {
		Backend
		Delete(key string) error
	}
	for name, backend := range map[string]deleter{
		"objectstore": objectstore.New(),
		"client":      objectstore.NewClient(srv.Addr()),
	} {
		t.Run(name, func(t *testing.T) {
			s, err := NewStore("main", backend, 0)
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.PutBytes([]byte("v-" + name))
			if err != nil {
				t.Fatal(err)
			}
			ref := p.Reference()
			if ref.Key != objectstore.ContentKey([]byte("v-"+name)) {
				t.Errorf("key = %q, want the content key", ref.Key)
			}
			if got, err := s.resolve(ref); err != nil || string(got) != "v-"+name {
				t.Errorf("resolve = %q, %v", got, err)
			}
			if err := backend.Delete(ref.Key); err != nil {
				t.Fatal(err)
			}
			if _, err := s.resolve(ref); !errors.Is(err, ErrNotFound) {
				t.Errorf("resolve evicted = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestProxyResolve(t *testing.T) {
	s, err := NewStore("main", objectstore.New(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	type model struct {
		Weights []float64
		Name    string
	}
	in := model{Weights: []float64{0.1, 0.2}, Name: "net"}
	p, err := s.Put(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reference().Store != "main" || p.Reference().Size == 0 {
		t.Errorf("ref = %+v", p.Reference())
	}
	var out model
	if err := p.ResolveInto(&out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "net" || len(out.Weights) != 2 {
		t.Errorf("out = %+v", out)
	}
}

func TestProxyResolveOnce(t *testing.T) {
	objects := objectstore.New()
	s, _ := NewStore("main", objects, 0)
	p, _ := s.PutBytes([]byte("payload"))
	// Delete behind the proxy's back; the first resolve already cached in
	// the proxy? No — resolve happens lazily, so delete-then-resolve fails;
	// but resolve-then-delete-then-resolve succeeds from the proxy's own
	// memoization.
	if _, err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	objects.Delete(p.Reference().Key)
	if _, err := p.Resolve(); err != nil {
		t.Errorf("memoized resolve failed: %v", err)
	}
}

func TestProxyContentAddressing(t *testing.T) {
	s, _ := NewStore("main", objectstore.New(), 0)
	p1, _ := s.PutBytes([]byte("same"))
	p2, _ := s.PutBytes([]byte("same"))
	if p1.Reference().Key != p2.Reference().Key {
		t.Error("identical content produced different keys")
	}
}

func TestCacheHits(t *testing.T) {
	objects := objectstore.New()
	s, _ := NewStore("main", objects, 1<<20)
	p, _ := s.PutBytes([]byte("cached"))
	ref := p.Reference()
	// Two distinct proxies to the same reference: second resolve must hit
	// the cache even after the stored object disappears.
	pa := &Proxy{ref: ref, store: s}
	if _, err := pa.Resolve(); err != nil {
		t.Fatal(err)
	}
	if err := objects.Delete(ref.Key); err != nil {
		t.Fatal(err)
	}
	pb := &Proxy{ref: ref, store: s}
	if _, err := pb.Resolve(); err != nil {
		t.Errorf("cache miss after delete: %v", err)
	}
	if got := s.Metrics.Counter("dedup_cache_hits").Value(); got != 1 {
		t.Errorf("cache hits = %d", got)
	}
	// A reference to content the store never held reports not found.
	missing := Reference{Store: "main", Key: objectstore.ContentKey([]byte("never stored"))}
	if _, err := s.resolve(missing); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object = %v, want ErrNotFound", err)
	}
}

func TestCacheEvictionBounded(t *testing.T) {
	const budget = int64(2 * len("obj-0"))
	s, _ := NewStore("main", objectstore.New(), budget)
	for i := 0; i < 5; i++ {
		p, _ := s.PutBytes([]byte(fmt.Sprintf("obj-%d", i)))
		if _, err := s.resolve(p.Reference()); err != nil {
			t.Fatal(err)
		}
	}
	if n, b := s.cache.Len(), s.cache.Bytes(); n > 2 || b > budget {
		t.Errorf("cache holds %d objects, %d bytes; budget %d bytes", n, b, budget)
	}
}

func TestRegistryResolve(t *testing.T) {
	reg := NewRegistry()
	s, _ := NewStore("site-a", objectstore.New(), 0)
	reg.Register(s)
	p, _ := s.PutBytes([]byte("via registry"))
	got, err := reg.ResolveReference(p.Reference())
	if err != nil || string(got) != "via registry" {
		t.Errorf("resolve = %q, %v", got, err)
	}
	if _, err := reg.ResolveReference(Reference{Store: "nowhere", Key: "k"}); !errors.Is(err, ErrUnknownStore) {
		t.Errorf("unknown store = %v", err)
	}
}

func TestPolicyMaybeProxy(t *testing.T) {
	s, _ := NewStore("main", objectstore.New(), 0)
	reg := NewRegistry()
	reg.Register(s)
	policy := Policy{MinSize: 100}

	// Small value stays inline.
	raw, proxied, err := MaybeProxy(s, policy, "tiny")
	if err != nil || proxied {
		t.Fatalf("small value proxied: %v, %v", proxied, err)
	}
	if string(raw) != `"tiny"` {
		t.Errorf("raw = %s", raw)
	}
	out, wasRef, err := MaybeResolve(reg, raw)
	if err != nil || wasRef || string(out) != `"tiny"` {
		t.Errorf("resolve inline = %s, %v, %v", out, wasRef, err)
	}

	// Large value becomes a reference.
	big := strings.Repeat("x", 1000)
	raw, proxied, err = MaybeProxy(s, policy, big)
	if err != nil || !proxied {
		t.Fatalf("large value not proxied: %v, %v", proxied, err)
	}
	if len(raw) >= 500 {
		t.Errorf("reference not small: %d bytes", len(raw))
	}
	out, wasRef, err = MaybeResolve(reg, raw)
	if err != nil || !wasRef {
		t.Fatalf("resolve ref: %v, %v", wasRef, err)
	}
	var round string
	if err := json.Unmarshal(out, &round); err != nil || round != big {
		t.Errorf("round trip lost data (%d bytes)", len(round))
	}
}

func TestPolicyDisabled(t *testing.T) {
	s, _ := NewStore("main", objectstore.New(), 0)
	raw, proxied, err := MaybeProxy(s, Policy{}, strings.Repeat("y", 10000))
	if err != nil || proxied {
		t.Errorf("zero policy proxied: %v %v", proxied, err)
	}
	if len(raw) < 10000 {
		t.Error("value truncated")
	}
}

func TestMaybeResolvePassthrough(t *testing.T) {
	reg := NewRegistry()
	for _, raw := range []string{`42`, `"str"`, `{"a": 1}`, `[1,2]`, `null`} {
		out, wasRef, err := MaybeResolve(reg, json.RawMessage(raw))
		if err != nil || wasRef || string(out) != raw {
			t.Errorf("MaybeResolve(%s) = %s, %v, %v", raw, out, wasRef, err)
		}
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := NewStore("", objectstore.New(), 0); err == nil {
		t.Error("unnamed store accepted")
	}
	if _, err := NewStore("x", nil, 0); err == nil {
		t.Error("nil object store accepted")
	}
}

func TestConcurrentProxyResolve(t *testing.T) {
	s, _ := NewStore("main", objectstore.New(), 1<<20)
	p, _ := s.PutBytes([]byte("shared"))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if data, err := p.Resolve(); err != nil || string(data) != "shared" {
				t.Errorf("resolve = %q, %v", data, err)
			}
		}()
	}
	wg.Wait()
	// The proxy memoizes: the store resolved the reference exactly once.
	if got := s.Metrics.Counter("resolves").Value(); got != 1 {
		t.Errorf("store resolves = %d, want 1", got)
	}
}

func TestPropertyProxyRoundTrip(t *testing.T) {
	s, _ := NewStore("main", objectstore.New(), 1<<20)
	f := func(data []byte) bool {
		p, err := s.PutBytes(data)
		if err != nil {
			return false
		}
		got, err := p.Resolve()
		if err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
