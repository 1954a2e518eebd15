package objectstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v" {
		t.Errorf("Get = %q, want v", got)
	}
	if !s.Exists("k") {
		t.Error("Exists = false")
	}
	if n, _ := s.Size("k"); n != 1 {
		t.Errorf("Size = %d, want 1", n)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := s.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := New()
	if err := s.Put("", []byte("x")); err == nil {
		t.Error("Put with empty key succeeded")
	}
}

func TestPutContentDeduplicates(t *testing.T) {
	s := New()
	k1, err := s.PutContent([]byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s.PutContent([]byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("content keys differ: %q vs %q", k1, k2)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	k3, _ := s.PutContent([]byte("different"))
	if k3 == k1 {
		t.Error("distinct content produced the same key")
	}
}

func TestMaxObjectEnforced(t *testing.T) {
	s := New()
	s.MaxObject = 4
	if err := s.Put("k", []byte("12345")); err == nil {
		t.Error("oversized Put succeeded")
	}
	if err := s.Put("k", []byte("1234")); err != nil {
		t.Errorf("at-limit Put failed: %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	s.Put("k", []byte("orig"))
	got, _ := s.Get("k")
	copy(got, "XXXX")
	again, _ := s.Get("k")
	if string(again) != "orig" {
		t.Error("caller mutation leaked into store")
	}
}

func TestTotalBytesAndLen(t *testing.T) {
	for name, s := range map[string]*Store{"memory": New(), "dir": openDir(t, t.TempDir())} {
		s.Put("a", make([]byte, 10))
		s.Put("b", make([]byte, 20))
		if s.Len() != 2 || s.TotalBytes() != 30 {
			t.Errorf("%s: %d objects / %d bytes, want 2 / 30", name, s.Len(), s.TotalBytes())
		}
		s.Put("a", make([]byte, 5)) // replace
		if s.Len() != 2 || s.TotalBytes() != 25 {
			t.Errorf("%s after replace: %d objects / %d bytes, want 2 / 25", name, s.Len(), s.TotalBytes())
		}
		s.Delete("b")
		if s.Len() != 1 || s.TotalBytes() != 5 {
			t.Errorf("%s after delete: %d objects / %d bytes, want 1 / 5", name, s.Len(), s.TotalBytes())
		}
		if g := s.Metrics.Gauge("bytes").Value(); g != 5 || s.Metrics.Gauge("objects").Value() != 1 {
			t.Errorf("%s: gauges read %d bytes / %d objects, want 5 / 1", name, g, s.Metrics.Gauge("objects").Value())
		}
		if s.dir != "" {
			checkIndexMatchesDisk(t, s)
		}
	}
}

func TestClosedStore(t *testing.T) {
	s := New()
	s.Close()
	if err := s.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close = %v", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after close = %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				key := fmt.Sprintf("k%d-%d", i, j)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if got, err := s.Get(key); err != nil || string(got) != key {
					t.Errorf("Get(%s) = %q, %v", key, got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Len())
	}
}

func TestHTTPServerRoundTrip(t *testing.T) {
	s := New()
	srv, err := ServeHTTP(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())

	if err := c.Put("blob", []byte{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("blob")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 1, 2, 3}) {
		t.Errorf("Get = %v", got)
	}
	if err := c.Delete("blob"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("blob"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get deleted = %v, want ErrNotFound", err)
	}
	if err := c.Delete("blob"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete deleted = %v, want ErrNotFound", err)
	}
}

func TestHTTPBadKeys(t *testing.T) {
	s := New()
	srv, err := ServeHTTP(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	if err := c.Put("a/b", []byte("x")); err == nil {
		t.Error("Put with slash in key succeeded")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	s := New()
	f := func(key string, val []byte) bool {
		if key == "" {
			return true
		}
		if err := s.Put(key, val); err != nil {
			return false
		}
		got, err := s.Get(key)
		return err == nil && bytes.Equal(got, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
