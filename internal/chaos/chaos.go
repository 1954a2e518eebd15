// Package chaos is a deterministic, seedable fault-injection layer for the
// Globus Compute stack. It provides wrappers for every process boundary —
// broker connections (publish failures, delivery delays, connection drops),
// the web service HTTP surface (5xx, 429+Retry-After, latency, transport
// errors), and workers (kills mid-task) — so the delivery guarantees the
// hosted service promises (fire-and-forget tasks survive endpoint and
// network failures) can be exercised and proven in tests instead of assumed.
//
// All randomness flows through one seeded Injector, so a chaos run with a
// fixed seed draws the same fault decisions in the same decision order.
// (Under concurrency the interleaving of *which component* draws next still
// varies with scheduling; determinism is per decision sequence, which is
// what bounded-loss assertions need.)
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/engine"
	"globuscompute/internal/protocol"
	"globuscompute/internal/trace"
)

// ErrInjected marks a fault synthesized by this package. It wraps
// broker.ErrClosed so retry layers classify it as a transient connection
// loss, which is what it simulates.
var ErrInjected = fmt.Errorf("chaos: injected fault: %w", broker.ErrClosed)

// Injector is the seeded decision source shared by every fault wrapper. It
// also counts fired faults per name so tests can assert injection really
// happened.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	fired map[string]int64
	// disabled pauses all injection (useful to let a chaotic run drain).
	disabled bool
}

// NewInjector returns an injector drawing from the given seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), fired: make(map[string]int64)}
}

// Decide draws one decision: true with probability p. Fired decisions are
// counted under name.
func (i *Injector) Decide(name string, p float64) bool {
	if i == nil || p <= 0 {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.disabled || i.rng.Float64() >= p {
		return false
	}
	i.fired[name]++
	return true
}

// Fired reports how many faults fired under name.
func (i *Injector) Fired(name string) int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired[name]
}

// TotalFired sums all fired faults.
func (i *Injector) TotalFired() int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var n int64
	for _, v := range i.fired {
		n += v
	}
	return n
}

// SetDisabled pauses (true) or resumes (false) all injection, letting a
// test stop the storm and assert the system drains to a stable state.
func (i *Injector) SetDisabled(v bool) {
	i.mu.Lock()
	i.disabled = v
	i.mu.Unlock()
}

// --- broker connection faults ---

// ConnFaults configures fault injection on a broker.Conn. Probabilities are
// per operation in [0,1]; a publish of N bodies is one operation.
type ConnFaults struct {
	// PublishFailRate fails a publish call with ErrInjected.
	PublishFailRate float64
	// PublishDelay sleeps before each publish call selected by
	// PublishDelayRate (payload-delivery delay injection).
	PublishDelay     time.Duration
	PublishDelayRate float64
	// DropRate drops the subscription on delivery: the message is still
	// handed to the consumer, but with probability DropRate the underlying
	// subscription is cancelled first, so everything unacked (including
	// this message) requeues on the broker and the consumer's stream
	// closes — a simulated connection loss mid-flight.
	DropRate float64
}

// WrapConn returns a Conn that injects f's faults around inner. Pair it
// with broker.NewReconnecting (chaos conn as the Dial result) to exercise
// reconnect-with-resubscribe paths.
func WrapConn(inner broker.Conn, inj *Injector, f ConnFaults) broker.Conn {
	return &faultyConn{inner: inner, inj: inj, f: f}
}

type faultyConn struct {
	inner broker.Conn
	inj   *Injector
	f     ConnFaults
}

func (c *faultyConn) Declare(queue string) error { return c.inner.Declare(queue) }
func (c *faultyConn) Delete(queue string) error  { return c.inner.Delete(queue) }

// PublishBatch draws its faults once per call: a batch is delayed, fails or
// lands as a unit, as on a real connection.
func (c *faultyConn) PublishBatch(queue string, bodies [][]byte, traces []trace.Context) error {
	if c.inj.Decide("conn.publish_delay", c.f.PublishDelayRate) {
		time.Sleep(c.f.PublishDelay)
	}
	if c.inj.Decide("conn.publish_fail", c.f.PublishFailRate) {
		return ErrInjected
	}
	return c.inner.PublishBatch(queue, bodies, traces)
}

func (c *faultyConn) Subscribe(queue string, prefetch int) (broker.Subscription, error) {
	sub, err := c.inner.Subscribe(queue, prefetch)
	if err != nil {
		return nil, err
	}
	fs := &faultySub{inner: sub, inj: c.inj, f: c.f, out: make(chan broker.Message, prefetch+1)}
	go fs.pump()
	return fs, nil
}

// faultySub relays deliveries, occasionally severing the stream the way a
// dying TCP connection would: unacked messages requeue broker-side and the
// consumer sees its channel close.
type faultySub struct {
	inner broker.Subscription
	inj   *Injector
	f     ConnFaults
	out   chan broker.Message
}

func (s *faultySub) pump() {
	for m := range s.inner.Messages() {
		if s.inj.Decide("conn.drop", s.f.DropRate) {
			// Sever before relaying: the in-flight message requeues along
			// with everything else unacked.
			_ = s.inner.Cancel()
			// Drain any deliveries raced in before the cancel took effect.
			for range s.inner.Messages() {
			}
			close(s.out)
			return
		}
		s.out <- m
	}
	close(s.out)
}

func (s *faultySub) Messages() <-chan broker.Message { return s.out }
func (s *faultySub) Ack(tags ...uint64) error        { return s.inner.Ack(tags...) }
func (s *faultySub) Reject(tag uint64) error         { return s.inner.Reject(tag) }
func (s *faultySub) Cancel() error                   { return s.inner.Cancel() }

// --- web service HTTP faults ---

// HTTPFaults configures fault injection on the web service REST surface.
type HTTPFaults struct {
	// ErrorRate fails the round trip with a transport error (connection
	// reset) before the request reaches the server.
	ErrorRate float64
	// ServerErrorRate short-circuits with a synthesized 503.
	ServerErrorRate float64
	// TooManyRate short-circuits with a synthesized 429 carrying
	// Retry-After (RetryAfter, default 1s, rendered in whole seconds).
	TooManyRate float64
	RetryAfter  time.Duration
	// Delay sleeps before requests selected by DelayRate (slow responses).
	Delay     time.Duration
	DelayRate float64
}

// RoundTripper injects HTTP faults in front of Base (default
// http.DefaultTransport). Install it as an http.Client Transport, e.g. on
// sdk.Client.HTTP, to exercise client retry/backoff without touching the
// server.
type RoundTripper struct {
	Base   http.RoundTripper
	Inj    *Injector
	Faults HTTPFaults
}

// RoundTrip implements http.RoundTripper.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt.Inj.Decide("http.delay", rt.Faults.DelayRate) {
		time.Sleep(rt.Faults.Delay)
	}
	if rt.Inj.Decide("http.error", rt.Faults.ErrorRate) {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("chaos: connection reset by peer")
	}
	if rt.Inj.Decide("http.500", rt.Faults.ServerErrorRate) {
		return synthesize(req, http.StatusServiceUnavailable, nil), nil
	}
	if rt.Inj.Decide("http.429", rt.Faults.TooManyRate) {
		ra := rt.Faults.RetryAfter
		if ra <= 0 {
			ra = time.Second
		}
		secs := int(ra / time.Second)
		if secs < 1 {
			secs = 1
		}
		h := http.Header{"Retry-After": []string{strconv.Itoa(secs)}}
		return synthesize(req, http.StatusTooManyRequests, h), nil
	}
	base := rt.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// synthesize fabricates a response without contacting the server (the
// request body is consumed and closed, as a real transport would).
func synthesize(req *http.Request, status int, h http.Header) *http.Response {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	if h == nil {
		h = http.Header{}
	}
	body := fmt.Sprintf(`{"error":"chaos: injected %d"}`, status)
	h.Set("Content-Type", "application/json")
	return &http.Response{
		StatusCode: status,
		Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Header:     h,
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
}

// --- worker faults ---

// RunnerFaults configures worker-kill injection.
type RunnerFaults struct {
	// KillRate kills the worker mid-task with this probability: the
	// wrapped runner returns a zero Result, which the engine treats as a
	// crashed worker and retries under the task's attempt budget.
	KillRate float64
	// KillIf force-kills matching tasks on every attempt (a deliberately
	// poisoned task, for dead-letter assertions). Evaluated before
	// KillRate and counted separately.
	KillIf func(protocol.Task) bool
	// Delay sleeps inside the worker before tasks selected by DelayRate.
	Delay     time.Duration
	DelayRate float64
}

// WrapRunner returns a TaskRunner injecting f's faults around run.
func WrapRunner(run engine.TaskRunner, inj *Injector, f RunnerFaults) engine.TaskRunner {
	return func(ctx context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
		if f.KillIf != nil && f.KillIf(task) {
			inj.note("runner.poison_kill")
			return protocol.Result{}
		}
		if inj.Decide("runner.delay", f.DelayRate) {
			time.Sleep(f.Delay)
		}
		if inj.Decide("runner.kill", f.KillRate) {
			return protocol.Result{}
		}
		return run(ctx, task, w)
	}
}

// note counts an unconditional fault firing.
func (i *Injector) note(name string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.fired[name]++
	i.mu.Unlock()
}
