package scheduler

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock safe for concurrent Admit
// calls.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestAdmissionTokenBucket(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := NewAdmission(AdmissionConfig{FillRate: 10, Burst: 20, MaxInFlight: -1, Now: clk.now})

	// A full bucket admits up to Burst at once.
	if d := a.Admit("u", 20); !d.OK {
		t.Fatalf("burst admit rejected: %+v", d)
	}
	// Empty bucket: the next task is rejected with a rate Retry-After.
	d := a.Admit("u", 1)
	if d.OK || d.Reason != ReasonRate {
		t.Fatalf("want rate rejection, got %+v", d)
	}
	if d.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %v < 1s floor", d.RetryAfter)
	}
	// Refill at 10/s: after 1s, 10 tokens are back.
	clk.advance(time.Second)
	if d := a.Admit("u", 10); !d.OK {
		t.Fatalf("refilled admit rejected: %+v", d)
	}
	if d := a.Admit("u", 1); d.OK {
		t.Fatal("over-refill admitted")
	}
	// Tokens cap at Burst, not beyond.
	clk.advance(time.Hour)
	if d := a.Admit("u", 21); d.OK {
		t.Fatal("admitted beyond Burst after long idle")
	}
	if d := a.Admit("u", 20); !d.OK {
		t.Fatalf("full-burst admit rejected: %+v", d)
	}
}

func TestAdmissionInFlightCap(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := NewAdmission(AdmissionConfig{FillRate: 1000, Burst: 1000, MaxInFlight: 10, Now: clk.now})

	if d := a.Admit("u", 10); !d.OK {
		t.Fatalf("admit to cap rejected: %+v", d)
	}
	d := a.Admit("u", 1)
	if d.OK || d.Reason != ReasonInFlight {
		t.Fatalf("want inflight rejection, got %+v", d)
	}
	if d.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %v < 1s floor", d.RetryAfter)
	}
	// Releasing slots re-opens admission; tokens refill with the clock.
	a.Release("u", 4)
	clk.advance(time.Second)
	if d := a.Admit("u", 4); !d.OK {
		t.Fatalf("admit after release rejected: %+v", d)
	}
	if got := a.InFlight("u"); got != 10 {
		t.Fatalf("InFlight = %d, want 10", got)
	}
	// Release never goes negative.
	a.Release("u", 1000)
	if got := a.InFlight("u"); got != 0 {
		t.Fatalf("InFlight after over-release = %d", got)
	}
}

func TestAdmissionFairshareShrinksHeavyUserRate(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := NewAdmission(AdmissionConfig{
		FillRate: 100, Burst: 100, MaxInFlight: -1, Now: clk.now,
	})

	// Heavy burns 10k node-seconds of history; light has none.
	a.Charge("heavy", 10, 1000*time.Second)
	if a.Usage("heavy") <= 0 {
		t.Fatal("usage not charged")
	}
	heavyRate := a.effectiveRate("heavy")
	lightRate := a.effectiveRate("light")
	if heavyRate >= lightRate {
		t.Fatalf("heavy rate %f >= light rate %f", heavyRate, lightRate)
	}
	// Both drain their bucket; after the same wall-clock refill window the
	// light user gets more tokens back than the heavy one.
	a.Admit("heavy", 100)
	a.Admit("light", 100)
	clk.advance(time.Second)
	lightD := a.Admit("light", 60)
	heavyD := a.Admit("heavy", 60)
	if !lightD.OK {
		t.Fatalf("light user rejected after refill: %+v", lightD)
	}
	if heavyD.OK {
		t.Fatal("heavy user refilled as fast as light user")
	}
}

func TestAdmissionZeroAndNegativeCounts(t *testing.T) {
	a := NewAdmission(AdmissionConfig{FillRate: 1, Burst: 1})
	if d := a.Admit("u", 0); !d.OK {
		t.Fatalf("n=0 rejected: %+v", d)
	}
	if d := a.Admit("u", -3); !d.OK {
		t.Fatalf("n<0 rejected: %+v", d)
	}
	a.Release("u", 0)
	a.Release("u", -1)
	if got := a.InFlight("u"); got != 0 {
		t.Fatalf("InFlight = %d", got)
	}
}

// TestAdmissionConcurrentMultiTenant hammers Admit/Release/Charge/Usage
// from many goroutines across many tenants — the satellite's -race
// exercise for the fairshare seed and the admission layer on top of it.
// Invariants: admitted-minus-released in-flight never exceeds the cap, and
// the controller's own accounting matches the test's.
func TestAdmissionConcurrentMultiTenant(t *testing.T) {
	const (
		tenants    = 8
		goroutines = 4 // per tenant
		iters      = 300
		cap        = 64
	)
	a := NewAdmission(AdmissionConfig{
		FillRate: 1e6, Burst: 1e6, MaxInFlight: cap,
	})
	users := make([]string, tenants)
	for i := range users {
		users[i] = string(rune('a' + i))
	}
	var wg sync.WaitGroup
	for _, u := range users {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					d := a.Admit(u, 2)
					if d.OK {
						a.Charge(u, 1, time.Millisecond)
						a.Release(u, 2)
					} else if d.Reason != ReasonRate && d.Reason != ReasonInFlight {
						t.Errorf("bad reason %q", d.Reason)
						return
					}
					_ = a.Usage(u)
					if inf := a.InFlight(u); inf > cap {
						t.Errorf("inflight %d > cap %d", inf, cap)
						return
					}
				}
			}(u)
		}
	}
	wg.Wait()
	for _, u := range users {
		if got := a.InFlight(u); got != 0 {
			t.Errorf("user %s leaked %d in-flight slots", u, got)
		}
	}
}

// TestFairshareConcurrent drives charge/current on the raw fairshare seed
// from many goroutines (it had never been exercised concurrently).
func TestFairshareConcurrent(t *testing.T) {
	f := newFairshare(time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u := string(rune('a' + g%4))
			for i := 0; i < 500; i++ {
				f.charge(u, 1, time.Millisecond)
				if f.current(u) < 0 {
					t.Error("negative usage")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
