package scheduler

import (
	"math"
	"sync"
	"time"
)

// Admission is the front-door overload controller: per-user token-bucket
// rate limiting plus per-user in-flight caps, with the fairshare decayed
// usage (fairshare.go) modulating each user's effective refill rate so a
// tenant with heavy recent consumption refills slower than a light one at
// the same nominal rate. It is the live promotion of the fairshare seed:
// the same exponentially-decayed node-second accounting that ranks batch
// jobs now also prices webservice admission.
//
// The controller is deliberately webservice-agnostic: it speaks users and
// task counts, returns Decisions, and leaves HTTP status codes and metrics
// to the caller.

// Admission reasons reported in Decision.Reason and usable as metric labels.
const (
	// ReasonRate marks a token-bucket rejection (refill deficit).
	ReasonRate = "rate"
	// ReasonInFlight marks an in-flight-cap rejection.
	ReasonInFlight = "inflight"
)

// Fairshare modulation of the admission rate: decayed historical usage
// (halflife fairHalflife, as EnableFairshare defaults to) shrinks a user's
// effective fill rate to FillRate / (1 + fairWeight*log1p(usage)).
const (
	fairHalflife = 10 * time.Minute
	fairWeight   = 0.25
)

// AdmissionConfig tunes the controller. The zero value of any field selects
// its default.
type AdmissionConfig struct {
	// FillRate is the steady-state admission rate per user in tasks/second
	// (default 500).
	FillRate float64
	// Burst is the token-bucket capacity per user in tasks (default
	// 2*FillRate): the largest batch a quiet user can submit at once.
	Burst float64
	// MaxInFlight caps tasks a user may have admitted-but-not-terminal
	// (default 4*Burst; <0 disables the cap).
	MaxInFlight int
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c *AdmissionConfig) fill() {
	if c.FillRate <= 0 {
		c.FillRate = 500
	}
	if c.Burst <= 0 {
		c.Burst = 2 * c.FillRate
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = int(4 * c.Burst)
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Decision is the outcome of one Admit call.
type Decision struct {
	// OK reports whether the batch was admitted. When true the caller owns
	// n in-flight slots and must Release them as tasks reach terminal
	// states (or on submit failure).
	OK bool
	// RetryAfter, on rejection, is the earliest duration after which a
	// retry of the same batch could succeed. Always >= 1s so it survives
	// whole-second Retry-After headers.
	RetryAfter time.Duration
	// Reason is ReasonRate or ReasonInFlight on rejection, "" on success.
	Reason string
}

// userBucket is one tenant's admission state.
type userBucket struct {
	tokens   float64
	last     time.Time
	inflight int
}

// Admission implements fair-share admission control. Safe for concurrent
// use.
type Admission struct {
	mu    sync.Mutex
	cfg   AdmissionConfig
	users map[string]*userBucket
	fair  *fairshare
}

// NewAdmission builds a controller from cfg (zero fields take defaults).
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg.fill()
	a := &Admission{
		cfg:   cfg,
		users: make(map[string]*userBucket),
		fair:  newFairshare(fairHalflife),
	}
	a.fair.now = cfg.Now
	return a
}

// effectiveRate is a user's current refill rate: the nominal FillRate
// shrunk by decayed historical usage, mirroring effectivePriorityLocked's
// log1p shape. A user with zero history refills at full rate.
func (a *Admission) effectiveRate(user string) float64 {
	return a.cfg.FillRate / (1 + fairWeight*math.Log1p(a.fair.current(user)))
}

// bucketLocked returns (creating if needed) the user's bucket with tokens
// refilled to now at the user's effective rate. Caller holds a.mu.
func (a *Admission) bucketLocked(user string, now time.Time, rate float64) *userBucket {
	b := a.users[user]
	if b == nil {
		b = &userBucket{tokens: a.cfg.Burst, last: now}
		a.users[user] = b
		return b
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens = math.Min(a.cfg.Burst, b.tokens+rate*dt.Seconds())
	}
	b.last = now
	return b
}

// Admit asks to admit a batch of n tasks for user. On success the caller
// owns n in-flight slots (Release them at terminal states); on rejection
// the Decision carries the reason and a Retry-After hint. n <= 0 is
// admitted unconditionally.
func (a *Admission) Admit(user string, n int) Decision {
	if n <= 0 {
		return Decision{OK: true}
	}
	// Compute the fairshare-modulated rate outside a.mu: fairshare has its
	// own lock and the two orders (Admit vs Charge) must not deadlock.
	rate := a.effectiveRate(user)
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.cfg.Now()
	b := a.bucketLocked(user, now, rate)
	if a.cfg.MaxInFlight > 0 && b.inflight+n > a.cfg.MaxInFlight {
		// In-flight caps clear as results land; the bucket's refill time
		// for the batch is the best available lower bound on that.
		return Decision{RetryAfter: retryAfterFor(float64(n), rate), Reason: ReasonInFlight}
	}
	if b.tokens < float64(n) {
		deficit := float64(n) - b.tokens
		return Decision{RetryAfter: retryAfterFor(deficit, rate), Reason: ReasonRate}
	}
	b.tokens -= float64(n)
	b.inflight += n
	return Decision{OK: true}
}

// Release returns n in-flight slots for user: call it once per admitted
// task reaching a terminal state, or for the whole batch when a submit
// fails after admission.
func (a *Admission) Release(user string, n int) {
	if n <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if b := a.users[user]; b != nil {
		b.inflight -= n
		if b.inflight < 0 {
			b.inflight = 0
		}
	}
}

// Charge records completed consumption against the user's decayed
// fairshare usage, shrinking their future effective rate. nodes*elapsed is
// the node-seconds price; the webservice charges task roundtrips with
// nodes=1.
func (a *Admission) Charge(user string, nodes int, elapsed time.Duration) {
	a.fair.charge(user, nodes, elapsed)
}

// InFlight reports the user's currently-admitted, not-yet-released task
// count.
func (a *Admission) InFlight(user string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b := a.users[user]; b != nil {
		return b.inflight
	}
	return 0
}

// Usage reports the user's decayed node-second usage.
func (a *Admission) Usage(user string) float64 {
	return a.fair.current(user)
}

// retryAfterFor converts a token deficit at a refill rate into a
// Retry-After hint, clamped to [1s, 60s] so it is meaningful after
// whole-second header truncation and never tells a client to go away for
// minutes.
func retryAfterFor(deficit, rate float64) time.Duration {
	if rate <= 0 {
		return 60 * time.Second
	}
	d := time.Duration(deficit / rate * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return d
}
