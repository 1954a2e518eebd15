package webservice

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
)

// Overload protection: the submit front door applies per-tenant admission
// control (token bucket modulated by fairshare usage), sheds when a target
// endpoint's egress backlog signals downstream saturation, and converts
// broker queue-depth rejections into retryable errors. Every shed carries a
// computed Retry-After so well-behaved clients back off instead of
// retry-storming, and every admitted task holds one in-flight slot that is
// released exactly when the task reaches its terminal state (result
// recorded, cancelled, or lease-expired).

// ErrOverloaded is the sentinel wrapped by every shed decision; clients
// match it with errors.Is.
var ErrOverloaded = errors.New("webservice: overloaded")

// OverloadError is a shed decision: Status is the HTTP status the front end
// returns (429 for admission rejections the client caused, 503 for
// downstream pressure the client merely observes) and RetryAfter is the
// server's backoff hint.
type OverloadError struct {
	Status     int
	RetryAfter time.Duration
	Reason     string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("webservice: overloaded (%s): retry after %s", e.Reason, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// idemStripes is the stripe count for idempotency-key submit serialization.
// Two concurrent submits with the same (owner, key) must not both pass the
// lookup and create duplicate task sets; striping bounds the lock footprint
// while keeping unrelated keys concurrent.
const idemStripes = 64

// lockIdem serializes submissions sharing one idempotency key and returns
// the unlock function.
func (s *Service) lockIdem(owner, key string) func() {
	h := fnv.New32a()
	h.Write([]byte(owner))
	h.Write([]byte{0})
	h.Write([]byte(key))
	mu := &s.idemMu[h.Sum32()%idemStripes]
	mu.Lock()
	return mu.Unlock
}

// admit charges n task slots against the tenant's admission budget. A nil
// admission controller admits everything (overload protection off).
func (s *Service) admit(user string, n int) error {
	if s.cfg.Admission == nil {
		return nil
	}
	d := s.cfg.Admission.Admit(user, n)
	if !d.OK {
		s.Overload.Counter("admission_rejected_" + d.Reason).Inc()
		s.Overload.Counter("shed").Inc()
		s.audit(user, "submit_shed", "", ErrOverloaded, d.Reason)
		return &OverloadError{
			Status:     429, // the client's own rate; it should slow down
			RetryAfter: d.RetryAfter,
			Reason:     "admission " + d.Reason,
		}
	}
	s.Overload.Counter("admission_admitted").Add(int64(n))
	return nil
}

// release returns n slots to the tenant's in-flight budget (no-op without an
// admission controller).
func (s *Service) release(user string, n int) {
	if s.cfg.Admission == nil || n <= 0 {
		return
	}
	s.cfg.Admission.Release(user, n)
}

// releaseTerminal settles one task's admission accounting at its terminal
// transition: the in-flight slot frees and the fairshare ledger is charged
// with the task's node-time, which shrinks a heavy tenant's future refill
// rate.
func (s *Service) releaseTerminal(c statestore.Completion) {
	if s.cfg.Admission == nil || c.UserIdentity == "" {
		return
	}
	s.cfg.Admission.Release(c.UserIdentity, 1)
	elapsed := time.Duration(0)
	if !c.Created.IsZero() {
		elapsed = time.Since(c.Created)
	}
	s.cfg.Admission.Charge(c.UserIdentity, max(c.NumNodes, 1), elapsed)
}

// checkBacklog sheds a submission when the target endpoint's self-reported
// egress backlog (completed results not yet published — the truest signal of
// a drowning endpoint) exceeds the configured threshold. Interactive
// submissions tolerate twice the batch threshold, mirroring the broker's
// watermark split. An endpoint that has never reported a backlog is never
// shed on this signal.
func (s *Service) checkBacklog(target protocol.UUID, interactive bool) error {
	if s.cfg.BacklogShedThreshold <= 0 {
		return nil
	}
	ep, err := s.cfg.Store.GetEndpoint(target)
	if err != nil {
		return nil
	}
	return s.checkBacklogRecord(ep, interactive)
}

// checkBacklogRecord is checkBacklog against an already-fetched record (the
// routing path holds cached member records). A report older than the
// staleness horizon (three heartbeat intervals) is treated as unknown, not
// trusted: a dead endpoint's last backlog must neither shed traffic forever
// nor, once it drains to zero in its final report, absorb it forever.
func (s *Service) checkBacklogRecord(ep statestore.EndpointRecord, interactive bool) error {
	threshold := s.cfg.BacklogShedThreshold
	if threshold <= 0 {
		return nil
	}
	if ep.Load == nil || ep.Load.EgressBacklog == nil {
		return nil
	}
	if age := ep.LoadAge(time.Now()); age < 0 || age >= s.staleAfter() {
		return nil
	}
	limit := threshold
	if interactive {
		limit = 2 * threshold
	}
	backlog := *ep.Load.EgressBacklog
	if backlog < limit {
		return nil
	}
	target := ep.ID
	s.Overload.Counter("backlog_shed").Inc()
	s.Overload.Counter("shed").Inc()
	s.shedLocal(target)
	return &OverloadError{
		Status:     503, // endpoint pressure, not the client's fault
		RetryAfter: backlogRetryAfter(backlog, limit),
		Reason:     fmt.Sprintf("endpoint %s egress backlog %d over limit %d", target, backlog, limit),
	}
}

// backlogRetryAfter scales the backoff hint with how far over the limit the
// backlog is: 2s per multiple of the limit, clamped to [1s, 60s].
func backlogRetryAfter(backlog, limit int) time.Duration {
	if limit <= 0 {
		return time.Second
	}
	d := time.Duration(backlog/limit) * 2 * time.Second
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// queueFullError converts a broker depth rejection into the client-facing
// shed. The broker sheds when an endpoint's task queue is saturated, which
// drains at the endpoint's pace — a short fixed backoff is the honest hint.
func (s *Service) queueFullError(target protocol.UUID, err error) error {
	s.Overload.Counter("queue_shed").Inc()
	s.Overload.Counter("shed").Inc()
	s.shedLocal(target)
	return &OverloadError{
		Status:     503,
		RetryAfter: 5 * time.Second,
		Reason:     fmt.Sprintf("task queue saturated: %v", err),
	}
}

// shedLocal records a shed against the target endpoint's fleet-local
// registry, feeding the shed-ratio SLO rule (ws_sheds / ws_submit_attempts).
func (s *Service) shedLocal(target protocol.UUID) {
	if target == "" {
		return
	}
	if loc := s.Fleet.Local(string(target)); loc != nil {
		loc.Counter("sheds").Inc()
	}
}

// observeSubmitAttempt records one submit attempt (admitted or shed) against
// the target endpoint, the denominator of the shed-ratio SLO.
func (s *Service) observeSubmitAttempt(target protocol.UUID, n int) {
	if target == "" {
		return
	}
	if loc := s.Fleet.Local(string(target)); loc != nil {
		loc.Counter("submit_attempts").Add(int64(n))
	}
}
