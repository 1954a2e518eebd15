package experiments

import (
	"os"
	"strconv"
	"testing"
	"time"
)

// TestRouteFleetServes is the always-on harness check: a small fast fleet
// behind a routing group serves every submission to a terminal state and
// reports sane latency percentiles.
func TestRouteFleetServes(t *testing.T) {
	f, err := StartRouteFleet(RouteFleetOptions{
		Endpoints:      40,
		BaseService:    20 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	pt, err := f.Run(200, 300)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Tasks != 300 || pt.AchievedPerS <= 0 {
		t.Fatalf("point = %+v", pt)
	}
	if pt.P99US < float64(20*time.Millisecond/time.Microsecond) {
		t.Fatalf("p99 %.0fus below one service time — latency not measured end to end", pt.P99US)
	}
	if pt.Policy != "p2c" {
		t.Fatalf("point labeled %s", pt.Policy)
	}
}

// TestRouteSmoke is the placement acceptance smoke (make route-smoke): 1000
// simulated endpoints under the race detector, 2% of them 10x slower, routed
// by random vs power-of-two-choices at the same offered load. p2c must hold
// p99 task latency to at most half of random's, without losing throughput.
// Gated on GC_ROUTE so plain `go test ./...` stays fast.
func TestRouteSmoke(t *testing.T) {
	if os.Getenv("GC_ROUTE") == "" {
		t.Skip("set GC_ROUTE=1 to run the routing smoke")
	}
	fleetN := 1000
	if v, err := strconv.Atoi(os.Getenv("GC_ROUTE_FLEET")); err == nil && v > 0 {
		fleetN = v
	}
	arms := make(map[string]RoutePoint, 2)
	for _, policy := range []string{"random", "p2c"} {
		pt, err := routeArm(policy, fleetN)
		if err != nil {
			t.Fatalf("route-%s: %v", policy, err)
		}
		t.Logf("route-%-6s achieved %.0f/s p50 %.0fus p99 %.0fus", policy, pt.AchievedPerS, pt.P50US, pt.P99US)
		arms[policy] = pt
	}
	rnd, p2c := arms["random"], arms["p2c"]
	if p2c.P99US <= 0 || rnd.P99US <= 0 {
		t.Fatalf("missing percentiles: random %+v p2c %+v", rnd, p2c)
	}
	if p2c.P99US > 0.5*rnd.P99US {
		t.Fatalf("p2c p99 %.0fus > 0.5x random p99 %.0fus (ratio %.2fx, bar >= 2x)",
			p2c.P99US, rnd.P99US, rnd.P99US/p2c.P99US)
	}
	if p2c.AchievedPerS < 0.9*rnd.AchievedPerS {
		t.Fatalf("p2c throughput %.0f/s fell below 0.9x random's %.0f/s", p2c.AchievedPerS, rnd.AchievedPerS)
	}
}
