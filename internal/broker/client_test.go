package broker

import (
	"runtime"
	"testing"

	"globuscompute/internal/protocol"
)

// ping round-trips a heartbeat.
func (c *Client) ping() error {
	return c.call(protocol.EnvHeartbeat, nil)
}

// TestCallReleasesItsTimer pins that a request/reply exchange leaves nothing
// behind once it returns. Each call arms a 30 s reply timeout; under go.mod's
// pre-1.23 timer rules a timer that is never stopped stays reachable until it
// fires, so 20,000 quick round trips would hold 20,000 timers and channels
// (several MB) for half a minute.
func TestCallReleasesItsTimer(t *testing.T) {
	s, _ := newTestServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ping(); err != nil { // warm the connection's buffers
		t.Fatal(err)
	}
	inUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	before := inUse()
	const calls = 20000
	for i := 0; i < calls; i++ {
		if err := c.ping(); err != nil {
			t.Fatal(err)
		}
	}
	after := inUse()
	if after > before && after-before >= 1<<20 {
		t.Errorf("%d pings grew HeapInuse by %.2f MB, want < 1 MB", calls, float64(after-before)/(1<<20))
	}
}
