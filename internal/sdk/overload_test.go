package sdk

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/webservice"
)

func TestDoTypedOverloadedError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"admission rate","retry_after":7}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	var sleeps []time.Duration
	c := newRetryClient(srv, &sleeps)
	c.MaxRetries = 2

	before := time.Now()
	err := c.do("POST", "/v2/submit", map[string]int{"x": 1}, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("err %T not an OverloadedError", err)
	}
	if oe.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %s, want 7s", oe.RetryAfter)
	}
	if oe.RetryAt.Before(before.Add(7 * time.Second)) {
		t.Errorf("RetryAt %s earlier than hint deadline", oe.RetryAt)
	}
	// The typed error still unwraps to its APIError for status inspection.
	var api *APIError
	if !errors.As(err, &api) || api.Status != http.StatusTooManyRequests {
		t.Fatalf("APIError unwrap = %+v", api)
	}
	// Every shed response counts, including the retried attempts.
	if got := c.Sheds.Load(); got != 3 {
		t.Errorf("Sheds = %d, want 3 (initial + 2 retries)", got)
	}
}

func TestDo503WithoutRetryAfterIsNotOverload(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"crashed"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	var sleeps []time.Duration
	c := newRetryClient(srv, &sleeps)
	c.MaxRetries = 1

	err := c.do("GET", "/", nil, nil)
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("plain 503 classified as overload: %v", err)
	}
	if got := c.Sheds.Load(); got != 0 {
		t.Errorf("Sheds = %d, want 0", got)
	}
}

func TestSubmitBatchOptsIdempotentRetry(t *testing.T) {
	// First POST is "processed but the response is lost" (simulated by a
	// 500); the retry must carry the same idempotency key and priority so
	// the service can replay the original task IDs — the exactly-once
	// submit the key buys.
	var calls atomic.Int64
	var mu sync.Mutex
	var sent []webservice.SubmitOptions
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, opts, err := webservice.ReadSubmitBody(r, 1<<20)
		if err != nil {
			t.Errorf("submit body: %v", err)
		}
		mu.Lock()
		sent = append(sent, opts)
		mu.Unlock()
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"response lost"}`, http.StatusInternalServerError)
			return
		}
		webservice.WriteSubmitReply(w, r, []protocol.UUID{"11111111-1111-4111-8111-111111111111"})
	}))
	defer srv.Close()
	var sleeps []time.Duration
	c := newRetryClient(srv, &sleeps)

	want := webservice.SubmitOptions{IdempotencyKey: "retry-key-1", Interactive: true}
	ids, err := c.SubmitBatchOpts(
		[]webservice.SubmitRequest{{EndpointID: "ep", FunctionID: "fn", Payload: []byte(`1`)}}, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != 2 || sent[0] != want || sent[1] != want {
		t.Fatalf("options sent = %+v, want %+v on both attempts", sent, want)
	}
}
