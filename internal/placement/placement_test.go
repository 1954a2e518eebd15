package placement

import (
	"testing"
	"time"

	"globuscompute/internal/metrics"
	"globuscompute/internal/protocol"
)

// score reads a candidate's load score under the selector's lock.
func (s *Selector) score(c Candidate, now time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scoreLocked(c, now)
}

func mkCand(id string, queued, backlog, free, total int, reportedAgo time.Duration, now time.Time) Candidate {
	c := Candidate{
		ID: protocol.UUID(id), Online: true,
		QueuedIntake: queued, EgressBacklog: backlog,
		FreeWorkers: free, TotalWorkers: total,
	}
	if reportedAgo >= 0 {
		c.ReportedAt = now.Add(-reportedAgo)
	}
	return c
}

func TestPickEmptyAndPolicies(t *testing.T) {
	now := time.Now()
	for _, pol := range []Policy{PolicyRandom, PolicyRoundRobin, PolicyLeastBacklog, PolicyP2C} {
		s, err := New(Config{Policy: pol})
		if err != nil {
			t.Fatalf("New(%s): %v", pol, err)
		}
		if _, err := s.Pick(nil, now); err != ErrNoCandidates {
			t.Fatalf("%s: empty pick err = %v, want ErrNoCandidates", pol, err)
		}
		c, err := s.Pick([]Candidate{mkCand("a", 0, 0, 1, 1, 0, now)}, now)
		if err != nil || c.ID != "a" {
			t.Fatalf("%s: single pick = %v, %v", pol, c, err)
		}
	}
	if _, err := New(Config{Policy: "bogus"}); err == nil {
		t.Fatal("New accepted unknown policy")
	}
}

func TestRoundRobinRotates(t *testing.T) {
	s, _ := New(Config{Policy: PolicyRoundRobin})
	now := time.Now()
	cands := []Candidate{
		mkCand("a", 0, 0, 1, 1, 0, now),
		mkCand("b", 0, 0, 1, 1, 0, now),
		mkCand("c", 0, 0, 1, 1, 0, now),
	}
	var got []protocol.UUID
	for i := 0; i < 6; i++ {
		c, _ := s.Pick(cands, now)
		got = append(got, c.ID)
	}
	want := []protocol.UUID{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation %v, want %v", got, want)
		}
	}
}

func TestLeastBacklogPrefersIdle(t *testing.T) {
	s, _ := New(Config{Policy: PolicyLeastBacklog})
	now := time.Now()
	cands := []Candidate{
		mkCand("busy", 50, 10, 0, 4, 0, now),
		mkCand("idle", 0, 0, 4, 4, 0, now),
		mkCand("mid", 5, 0, 1, 4, 0, now),
	}
	c, err := s.Pick(cands, now)
	if err != nil || c.ID != "idle" {
		t.Fatalf("pick = %v, %v; want idle", c.ID, err)
	}
}

// TestP2CAvoidsLoaded drives many picks at a fleet with one overloaded
// endpoint and checks p2c sends it almost nothing while random keeps feeding
// it its uniform share.
func TestP2CAvoidsLoaded(t *testing.T) {
	now := time.Now()
	cands := []Candidate{
		mkCand("hot", 100, 50, 0, 1, 0, now),
		mkCand("b", 0, 0, 1, 1, 0, now),
		mkCand("c", 0, 0, 1, 1, 0, now),
		mkCand("d", 0, 0, 1, 1, 0, now),
	}
	// 200 picks: few enough that the cold endpoints' hysteresis charges stay
	// far below the hot endpoint's 150-task queue (with more picks the
	// charges legitimately equalize load back onto it).
	count := func(pol Policy) int {
		s, _ := New(Config{Policy: pol})
		hot := 0
		for i := 0; i < 200; i++ {
			c, _ := s.Pick(cands, now)
			if c.ID == "hot" {
				hot++
			}
		}
		return hot
	}
	randomHot := count(PolicyRandom)
	p2cHot := count(PolicyP2C)
	if randomHot < 30 { // ~50 expected
		t.Fatalf("random sent only %d/200 to hot endpoint; baseline broken", randomHot)
	}
	if p2cHot > randomHot/4 {
		t.Fatalf("p2c sent %d/200 to hot endpoint (random: %d); expected strong avoidance", p2cHot, randomHot)
	}
}

// TestStaleReportTreatedAsUnknown: an idle-looking report older than
// StaleAfter must not be trusted — the candidate scores at the
// fleet-typical prior plus a penalty, so an equally-idle endpoint with a
// fresh report always wins.
func TestStaleReportTreatedAsUnknown(t *testing.T) {
	hb := time.Second
	s, _ := New(Config{Policy: PolicyLeastBacklog, HeartbeatInterval: hb})
	now := time.Now()
	fresh := mkCand("live", 0, 0, 8, 8, 100*time.Millisecond, now)
	stale := mkCand("stale-idle", 0, 0, 8, 8, 4*hb, now) // same idle report, but ancient
	never := mkCand("never", 0, 0, 8, 8, -1, now)        // never reported

	if ss, fs := s.score(stale, now), s.score(fresh, now); ss <= fs {
		t.Fatalf("stale idle score %.3f <= fresh idle score %.3f; staleness ignored", ss, fs)
	}
	if ns, ss := s.score(never, now), s.score(stale, now); ns != ss {
		t.Fatalf("never-reported score %.3f != stale score %.3f; both should rank as unknown", ns, ss)
	}
	// 12 picks: few enough that hysteresis charges on the fresh candidate
	// stay below the stale candidates' unknown penalty.
	for i := 0; i < 12; i++ {
		c, _ := s.Pick([]Candidate{fresh, stale, never}, now)
		if c.ID != "live" {
			t.Fatalf("pick %d chose %s over the only fresh report", i, c.ID)
		}
	}
}

// TestHysteresisSpreadsBurst: between heartbeats, reports don't change, so
// without hysteresis every p2c comparison against a just-idle endpoint would
// choose it. The decayed pick counter must spread a burst across equally-idle
// candidates instead of stampeding the first.
func TestHysteresisSpreadsBurst(t *testing.T) {
	s, _ := New(Config{Policy: PolicyLeastBacklog, HeartbeatInterval: time.Second})
	now := time.Now()
	cands := []Candidate{
		mkCand("a", 0, 0, 4, 4, 0, now),
		mkCand("b", 0, 0, 4, 4, 0, now),
		mkCand("c", 0, 0, 4, 4, 0, now),
	}
	got := map[protocol.UUID]int{}
	for i := 0; i < 90; i++ { // burst within one heartbeat: reports never refresh
		c, _ := s.Pick(cands, now)
		got[c.ID]++
	}
	for id, n := range got {
		if n < 20 || n > 40 {
			t.Fatalf("burst distribution %v: endpoint %s got %d/90, want ~30 each", got, id, n)
		}
	}
}

func TestHysteresisDecays(t *testing.T) {
	hb := time.Second
	s, _ := New(Config{Policy: PolicyP2C, HeartbeatInterval: hb})
	now := time.Now()
	for i := 0; i < 16; i++ {
		s.chargeLocked("a", now)
	}
	before := s.decayedLocked("a", now)
	after := s.decayedLocked("a", now.Add(4*hb))
	if after > before/8 {
		t.Fatalf("pick charge decayed %0.2f -> %0.2f over 4 half-lives; want >= 8x drop", before, after)
	}
}

func TestOfflineFallback(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := New(Config{Policy: PolicyP2C, Metrics: reg})
	now := time.Now()
	off := mkCand("off", 0, 0, 1, 1, 0, now)
	off.Online = false
	on := mkCand("on", 99, 99, 0, 1, 0, now)

	// Online candidate wins regardless of load when the alternative is offline.
	for i := 0; i < 20; i++ {
		c, _ := s.Pick([]Candidate{off, on}, now)
		if c.ID != "on" {
			t.Fatalf("picked offline candidate %s while an online one existed", c.ID)
		}
	}
	// All-offline group still picks someone (task buffers in the broker).
	c, err := s.Pick([]Candidate{off}, now)
	if err != nil || c.ID != "off" {
		t.Fatalf("all-offline pick = %v, %v; want off", c, err)
	}
	if v := reg.Counter("route_offline_picks").Value(); v != 1 {
		t.Fatalf("route_offline_picks = %d, want 1", v)
	}
	if v := reg.Counter("route_picks").Value(); v != 21 {
		t.Fatalf("route_picks = %d, want 21", v)
	}
}

func TestMetricsStalePick(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := New(Config{Policy: PolicyRandom, HeartbeatInterval: time.Second, Metrics: reg})
	now := time.Now()
	stale := mkCand("s", 0, 0, 1, 1, time.Minute, now)
	if _, err := s.Pick([]Candidate{stale}, now); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("route_stale_picks").Value(); v != 1 {
		t.Fatalf("route_stale_picks = %d, want 1", v)
	}
	s.NoteReroute()
	if v := reg.Counter("route_reroutes").Value(); v != 1 {
		t.Fatalf("route_reroutes = %d, want 1", v)
	}
}
