// Package placement picks which endpoint a task should run on. It is the
// perf half of the ROADMAP's "backpressure-aware routing" item: PRs 4-5 made
// agents report load in heartbeats (queued intake, free/total workers,
// egress backlog) and PR 7 sheds on that load, but until now nothing routed
// on it — clients named an endpoint and the MEP picked user endpoints by a
// static config hash.
//
// The package offers pluggable policies behind one Selector:
//
//   - random: uniform over the candidates; the baseline the paper's fleets
//     implicitly run today (clients pick an endpoint by hand).
//   - round-robin: rotate through the candidates in order.
//   - least-backlog: full scan for the lowest load score. Optimal with
//     perfectly fresh information, but O(n) per pick and prone to herding:
//     every concurrent pick agrees on the same "least loaded" endpoint.
//   - p2c (power of two choices): sample two candidates, take the lower
//     score. O(1) per pick, and the classic balls-into-bins result is that
//     two random choices already collapse the maximum queue length from
//     O(log n / log log n) to O(log log n) — near least-backlog quality
//     without the scan or the herd.
//
// Load scores are built from heartbeat reports, which are stale by
// construction (an endpoint heartbeats every interval, and a 10k fleet
// decimates even that). Two mechanisms keep stale data from misrouting:
//
//   - Staleness decay: a report's influence fades linearly with age and a
//     report older than StaleAfter (default 3 heartbeat intervals) is
//     treated as unknown — the candidate is scored at the fleet-typical
//     prior plus a penalty instead of its last (possibly dead-idle) report.
//   - Hysteresis: every pick charges the winner a locally-decaying counter
//     (half-life of one heartbeat interval), so a briefly-quiet endpoint
//     absorbs load in proportion to its capacity instead of being stampeded
//     by every pick between two heartbeats.
package placement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"globuscompute/internal/metrics"
	"globuscompute/internal/protocol"
)

// Policy names a placement policy.
type Policy string

// Supported policies.
const (
	PolicyRandom       Policy = "random"
	PolicyRoundRobin   Policy = "round-robin"
	PolicyLeastBacklog Policy = "least-backlog"
	PolicyP2C          Policy = "p2c"
)

// ErrNoCandidates is returned by Pick when the candidate set is empty.
var ErrNoCandidates = errors.New("placement: no candidates")

// Candidate is one endpoint eligible for a pick, assembled by the caller
// from its statestore record and last heartbeat load report.
type Candidate struct {
	ID protocol.UUID
	// Online is the service's liveness view. Offline candidates are only
	// considered when no candidate is online (tasks to offline endpoints
	// buffer in the broker, so an all-offline group still queues work).
	Online bool
	// QueuedIntake is the agent-reported count of tasks received but not
	// yet finished (EndpointLoad.PendingTasks).
	QueuedIntake int
	// EgressBacklog is the agent-reported count of finished results not yet
	// published; -1 when the agent does not report it.
	EgressBacklog int
	// FreeWorkers / TotalWorkers size the endpoint's capacity.
	FreeWorkers  int
	TotalWorkers int
	// ReportedAt stamps the load report; the zero time means the endpoint
	// has never reported load.
	ReportedAt time.Time
}

// Config configures a Selector.
type Config struct {
	// Policy defaults to PolicyP2C.
	Policy Policy
	// HeartbeatInterval is the fleet's report cadence; it sizes both the
	// hysteresis half-life and the default staleness horizon. Defaults to
	// 1s.
	HeartbeatInterval time.Duration
	// StaleAfter is the age beyond which a load report is treated as
	// unknown. Defaults to 3*HeartbeatInterval, matching the liveness
	// heuristic used by the backlog-shed path.
	StaleAfter time.Duration
	// Metrics, when set, receives the route_* series (picks by policy,
	// per-pick candidate staleness, stale and offline picks).
	Metrics *metrics.Registry
}

// pickDecay is a per-endpoint exponentially-decaying pick counter — the
// hysteresis term charged against recent winners.
type pickDecay struct {
	v  float64
	at time.Time
}

// Selector applies one policy over candidate sets. Safe for concurrent use;
// a Selector is cheap enough to hold one per routing group so round-robin
// cursors and hysteresis state never mix across groups.
type Selector struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	rr    uint64
	picks map[protocol.UUID]*pickDecay
	// prior is an EWMA of fresh candidates' base scores: the score assigned
	// to candidates whose reports have aged out, so "unknown" ranks at
	// fleet-typical load rather than at zero (which would stampede every
	// dead endpoint) or infinity (which would strand rebooting ones).
	prior float64

	picksTotal   *metrics.Counter
	picksPolicy  *metrics.Counter
	reroutes     *metrics.Counter
	stalePicks   *metrics.Counter
	offlinePicks *metrics.Counter
	pickAge      *metrics.Histogram
}

// New builds a Selector, validating the policy.
func New(cfg Config) (*Selector, error) {
	if cfg.Policy == "" {
		cfg.Policy = PolicyP2C
	}
	switch cfg.Policy {
	case PolicyRandom, PolicyRoundRobin, PolicyLeastBacklog, PolicyP2C:
	default:
		return nil, fmt.Errorf("placement: unknown policy %q", cfg.Policy)
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 3 * cfg.HeartbeatInterval
	}
	// The random source is seeded from the policy name, so selectors are
	// deterministic.
	var seed int64
	for _, c := range cfg.Policy {
		seed = seed*31 + int64(c)
	}
	s := &Selector{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		picks: make(map[protocol.UUID]*pickDecay),
	}
	if cfg.Metrics != nil {
		s.picksTotal = cfg.Metrics.Counter("route_picks")
		s.picksPolicy = cfg.Metrics.Counter("route_picks_" + string(cfg.Policy))
		s.reroutes = cfg.Metrics.Counter("route_reroutes")
		s.stalePicks = cfg.Metrics.Counter("route_stale_picks")
		s.offlinePicks = cfg.Metrics.Counter("route_offline_picks")
		s.pickAge = cfg.Metrics.Histogram("route_pick_staleness")
	}
	return s, nil
}

// NoteReroute counts a pick that had to be retried because the chosen
// endpoint rejected the task (backlog shed, queue full).
func (s *Selector) NoteReroute() {
	if s.reroutes != nil {
		s.reroutes.Inc()
	}
}

// Pick selects one candidate. Offline candidates are ignored unless every
// candidate is offline (the task then buffers at whichever member the policy
// names, preserving the buffer-while-offline semantics of direct submits).
//
// Pick never copies the candidate slice: random and p2c rejection-sample
// online members in place (O(1) on a healthy fleet, with an O(n) reservoir
// fallback when sampling keeps landing on offline members), round-robin
// advances its cursor past offline members, and least-backlog scans without
// building a pool. A 10k-member group costs the same per pick as a 10-member
// one — copying 10k candidates per task was the submit path's scaling wall.
func (s *Selector) Pick(cands []Candidate, now time.Time) (Candidate, error) {
	if len(cands) == 0 {
		return Candidate{}, ErrNoCandidates
	}
	s.mu.Lock()
	var chosen Candidate
	offline := false
	switch s.cfg.Policy {
	case PolicyRandom:
		i, ok := s.sampleOnlineLocked(cands)
		chosen, offline = cands[i], !ok
	case PolicyRoundRobin:
		found := false
		for range cands {
			c := cands[s.rr%uint64(len(cands))]
			s.rr++
			if c.Online {
				chosen, found = c, true
				break
			}
		}
		if !found { // all offline: plain rotation
			offline = true
			chosen = cands[s.rr%uint64(len(cands))]
			s.rr++
		}
	case PolicyLeastBacklog:
		best, bestScore := -1, math.Inf(1)
		for i := range cands {
			if !cands[i].Online {
				continue
			}
			if sc := s.scoreLocked(cands[i], now); sc < bestScore {
				best, bestScore = i, sc
			}
		}
		if best < 0 {
			offline = true
			for i := range cands {
				if sc := s.scoreLocked(cands[i], now); sc < bestScore {
					best, bestScore = i, sc
				}
			}
		}
		chosen = cands[best]
	case PolicyP2C:
		i, ok := s.sampleOnlineLocked(cands)
		offline = !ok
		chosen = cands[i]
		if ok && len(cands) > 1 {
			for a := 0; a < sampleAttempts; a++ {
				if j := s.rng.Intn(len(cands)); j != i && cands[j].Online {
					if s.scoreLocked(cands[j], now) < s.scoreLocked(cands[i], now) {
						chosen = cands[j]
					}
					break
				}
			}
		}
	}
	s.chargeLocked(chosen.ID, now)
	s.mu.Unlock()

	s.observe(chosen, now, offline)
	return chosen, nil
}

// sampleAttempts bounds rejection sampling before falling back to a full
// scan; 16 misses in a row means well under ~1/16 of the fleet is online.
const sampleAttempts = 16

// sampleOnlineLocked returns a uniformly random online candidate's index, or
// (a uniformly random index, false) when no candidate is online. The happy
// path is a single rng draw; the fallback reservoir-samples so the choice
// stays uniform over whatever online members exist.
func (s *Selector) sampleOnlineLocked(cands []Candidate) (int, bool) {
	for a := 0; a < sampleAttempts; a++ {
		if i := s.rng.Intn(len(cands)); cands[i].Online {
			return i, true
		}
	}
	seen, pick := 0, -1
	for i := range cands {
		if cands[i].Online {
			seen++
			if s.rng.Intn(seen) == 0 {
				pick = i
			}
		}
	}
	if pick >= 0 {
		return pick, true
	}
	return s.rng.Intn(len(cands)), false
}

// scoreLocked computes the candidate's load score; lower is better. The
// base term is (queued intake + egress backlog - free workers) scaled by
// total workers, so a 100-worker cluster absorbs 100 queued tasks as easily
// as a laptop absorbs one. On top of that:
//
//   - the hysteresis term adds the candidate's decayed recent-pick count
//     (also scaled by capacity), standing in for load the endpoint has been
//     handed since its report;
//   - a staleness penalty ramps from 0 (just reported) to 1 (one full
//     queued-task-per-worker equivalent) as the report approaches
//     StaleAfter;
//   - at or past StaleAfter the report is discarded entirely: the score is
//     the fleet-typical prior plus the full penalty.
func (s *Selector) scoreLocked(c Candidate, now time.Time) float64 {
	total := c.TotalWorkers
	if total < 1 {
		total = 1
	}
	hyst := s.decayedLocked(c.ID, now) / float64(total)

	age := now.Sub(c.ReportedAt)
	if c.ReportedAt.IsZero() || age >= s.cfg.StaleAfter {
		return s.prior + hyst + 1
	}
	backlog := c.EgressBacklog
	if backlog < 0 {
		backlog = 0
	}
	base := float64(c.QueuedIntake+backlog-c.FreeWorkers) / float64(total)
	// Fold fresh observations into the unknown-candidate prior.
	const alpha = 0.05
	s.prior = (1-alpha)*s.prior + alpha*base
	staleness := float64(age) / float64(s.cfg.StaleAfter)
	if staleness < 0 {
		staleness = 0
	}
	return base + hyst + staleness
}

// hysteresisHalfLife is the decay half-life of the per-endpoint pick
// counter, expressed in heartbeat intervals: by the time a fresh report
// arrives, the charge for picks it already reflects has halved.
const hysteresisHalfLife = 1.0

func (s *Selector) decayedLocked(id protocol.UUID, now time.Time) float64 {
	p, ok := s.picks[id]
	if !ok {
		return 0
	}
	half := hysteresisHalfLife * float64(s.cfg.HeartbeatInterval)
	dt := float64(now.Sub(p.at))
	if dt > 0 {
		p.v *= math.Exp2(-dt / half)
		p.at = now
	}
	if p.v < 1e-3 {
		delete(s.picks, id)
		return 0
	}
	return p.v
}

func (s *Selector) chargeLocked(id protocol.UUID, now time.Time) {
	p, ok := s.picks[id]
	if !ok {
		p = &pickDecay{at: now}
		s.picks[id] = p
	} else {
		s.decayedLocked(id, now)
	}
	p.v++
	p.at = now
}

func (s *Selector) observe(chosen Candidate, now time.Time, offline bool) {
	if s.picksTotal == nil {
		return
	}
	s.picksTotal.Inc()
	s.picksPolicy.Inc()
	if offline {
		s.offlinePicks.Inc()
	}
	if chosen.ReportedAt.IsZero() || now.Sub(chosen.ReportedAt) >= s.cfg.StaleAfter {
		s.stalePicks.Inc()
	} else {
		s.pickAge.Observe(now.Sub(chosen.ReportedAt))
	}
}
