// Package sdk is the Globus Compute client library: a REST client for the
// web service, a future-based Executor mirroring
// concurrent.futures.Executor (submit returns a future; results stream back
// over the broker rather than by polling), ShellFunction and MPIFunction
// task types, and on-the-fly function registration with request batching.
package sdk

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"globuscompute/internal/metrics"
	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
	"globuscompute/internal/webservice"
)

// Client talks to the web service REST API.
type Client struct {
	// BaseURL is the service address, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Token is the bearer token for every request.
	Token string
	// HTTP is the underlying client (default: 30s timeout).
	HTTP *http.Client

	// MaxRetries bounds extra attempts after the first for transient
	// failures — transport errors, 429, and 5xx responses (default 4;
	// negative disables retries). Each retry waits a jittered exponential
	// backoff starting at RetryBaseDelay (default 50ms) capped at
	// RetryMaxDelay (default 2s), or the server's Retry-After when given.
	MaxRetries     int
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// Wire accounting, used by the streaming-vs-polling and batching
	// experiments to compare REST traffic.
	Requests      atomic.Int64
	BytesSent     atomic.Int64
	BytesReceived atomic.Int64
	// Retries counts retried attempts (the robustness dashboards read it).
	Retries atomic.Int64
	// Sheds counts overload rejections observed (429, or 503 carrying
	// Retry-After) across all attempts, retried or not — the client-side
	// view of the service's gc_shed_total.
	Sheds atomic.Int64

	// sleep and jitter are test seams (nil selects time.Sleep and a
	// seeded source).
	sleep  func(time.Duration)
	jitter *rand.Rand
	mu     sync.Mutex // guards jitter
}

// NewClient builds a client for the service at addr (host:port) using the
// given bearer token.
func NewClient(addr, token string) *Client {
	return &Client{
		BaseURL: "http://" + addr,
		Token:   token,
		HTTP:    &http.Client{Timeout: 30 * time.Second},
	}
}

// APIError carries a non-2xx response.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("sdk: api error %d: %s", e.Status, e.Message)
}

// ErrOverloaded is the sentinel for overload sheds: the service rejected the
// request to protect itself (429 admission control, 503 downstream
// saturation). Match with errors.Is; the concrete *OverloadedError carries
// the server's backoff hint.
var ErrOverloaded = errors.New("sdk: service overloaded")

// OverloadedError is returned when the retry budget drains against a
// shedding service. It unwraps to both ErrOverloaded and its *APIError, so
// callers can branch on overload generally or inspect the raw response.
type OverloadedError struct {
	API *APIError
	// RetryAfter is the server's backoff hint from the last shed response.
	RetryAfter time.Duration
	// RetryAt is the wall-clock deadline the hint resolves to: submitting
	// again before it will almost certainly shed again.
	RetryAt time.Time
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("sdk: overloaded (status %d, retry after %s): %s",
		e.API.Status, e.RetryAfter, e.API.Message)
}

// Unwrap exposes both the sentinel and the underlying API error to
// errors.Is/As.
func (e *OverloadedError) Unwrap() []error { return []error{ErrOverloaded, e.API} }

// do performs a JSON request/response round trip (see send).
func (c *Client) do(method, path string, body, out any) error {
	var encoded []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("sdk: encode request: %w", err)
		}
		encoded = b
	}
	data, _, err := c.send(method, path, "application/json", encoded)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("sdk: decode response: %w", err)
	}
	return nil
}

// send performs a request/response round trip with an encoded body,
// returning a 2xx response's body and Content-Type. Transient failures —
// transport errors, 429, and 5xx — retry with jittered exponential backoff
// under the client's retry budget, honoring Retry-After when the server
// sends one. Retried submits are made exactly-once by attaching an
// idempotency key (see SubmitBatchOpts): a retry whose first attempt was
// processed but whose response was lost replays the original task IDs
// instead of enqueuing duplicates.
func (c *Client) send(method, path, contentType string, encoded []byte) ([]byte, string, error) {
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	attempts := 1 + c.retryBudget()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.Retries.Add(1)
		}
		buf := bytes.NewReader(encoded)
		req, err := http.NewRequest(method, c.BaseURL+path, buf)
		if err != nil {
			return nil, "", err
		}
		req.Header.Set("Authorization", "Bearer "+c.Token)
		req.Header.Set("Content-Type", contentType)
		c.Requests.Add(1)
		c.BytesSent.Add(int64(len(encoded)))
		resp, err := hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("sdk: %s %s: %w", method, path, err)
			if attempt+1 < attempts {
				c.backoff(attempt, 0)
			}
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			if attempt+1 < attempts {
				c.backoff(attempt, 0)
			}
			continue
		}
		c.BytesReceived.Add(int64(len(data)))
		if resp.StatusCode < 200 || resp.StatusCode >= 300 {
			var apiErr struct {
				Error string `json:"error"`
			}
			msg := string(data)
			if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
				msg = apiErr.Error
			}
			api := &APIError{Status: resp.StatusCode, Message: msg}
			lastErr = api
			ra := retryAfter(resp)
			if resp.StatusCode == http.StatusTooManyRequests ||
				(resp.StatusCode == http.StatusServiceUnavailable && ra > 0) {
				// An overload shed, not a failure: type it so callers can
				// schedule around the server's hint instead of hammering.
				c.Sheds.Add(1)
				lastErr = &OverloadedError{API: api, RetryAfter: ra, RetryAt: time.Now().Add(ra)}
			}
			if retryableStatus(resp.StatusCode) && attempt+1 < attempts {
				c.backoff(attempt, ra)
				continue
			}
			return nil, "", lastErr
		}
		return data, resp.Header.Get("Content-Type"), nil
	}
	return nil, "", lastErr
}

// retryBudget returns the number of extra attempts allowed.
func (c *Client) retryBudget() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 4
	}
	return c.MaxRetries
}

// retryableStatus reports whether a response status merits a retry: rate
// limiting and server-side failures, never other client errors.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// retryAfter parses a Retry-After header in whole seconds (0 when absent or
// malformed; the HTTP-date form is not used by this service).
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// backoff sleeps a jittered exponential delay before retry attempt+1. A
// server-provided Retry-After overrides the computed delay.
func (c *Client) backoff(attempt int, after time.Duration) {
	base := c.RetryBaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := c.RetryMaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	// Full jitter in [d/2, d] so synchronized clients spread out.
	c.mu.Lock()
	if c.jitter == nil {
		c.jitter = rand.New(rand.NewSource(1))
	}
	d = d/2 + time.Duration(c.jitter.Int63n(int64(d)/2+1))
	c.mu.Unlock()
	if after > 0 {
		d = after
	}
	sleep := c.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(d)
}

// RegisterFunction registers an immutable function definition and returns
// its UUID.
func (c *Client) RegisterFunction(kind protocol.FunctionKind, definition []byte) (protocol.UUID, error) {
	var resp struct {
		FunctionID protocol.UUID `json:"function_uuid"`
	}
	err := c.do("POST", "/v2/functions", map[string]any{
		"kind": kind, "definition": definition,
	}, &resp)
	if err != nil {
		return "", err
	}
	return resp.FunctionID, nil
}

// FunctionRecord is the client view of a registered function.
type FunctionRecord struct {
	ID         protocol.UUID         `json:"id"`
	Owner      string                `json:"owner"`
	Kind       protocol.FunctionKind `json:"kind"`
	Definition []byte                `json:"definition"`
}

// GetFunction fetches a registered function's record (science gateways use
// this to invoke administrator-approved functions by UUID).
func (c *Client) GetFunction(id protocol.UUID) (FunctionRecord, error) {
	var rec FunctionRecord
	err := c.do("GET", "/v2/functions/"+string(id), nil, &rec)
	return rec, err
}

// RegisterEndpoint registers an endpoint and returns its connection info.
func (c *Client) RegisterEndpoint(req webservice.RegisterEndpointRequest) (webservice.RegisterEndpointResponse, error) {
	var resp webservice.RegisterEndpointResponse
	err := c.do("POST", "/v2/endpoints", req, &resp)
	return resp, err
}

// Heartbeat reports endpoint liveness plus the agent's optional load report
// and optional delta-encoded metrics snapshot (an endpoint.HeartbeatSink).
// Nil fields are omitted from the wire so old services ignore what they
// don't know.
func (c *Client) Heartbeat(ep protocol.UUID, online bool, load *statestore.EndpointLoad, snap *metrics.Snapshot) error {
	body := map[string]any{"online": online}
	if load != nil {
		body["load"] = load
	}
	if snap != nil && snap.Len() > 0 {
		body["metrics"] = snap
	}
	return c.do("POST", "/v2/endpoints/"+string(ep)+"/heartbeat", body, nil)
}

// SubmitBatch submits tasks and returns their IDs in order.
func (c *Client) SubmitBatch(tasks []webservice.SubmitRequest) ([]protocol.UUID, error) {
	return c.SubmitBatchOpts(tasks, webservice.SubmitOptions{})
}

// SubmitBatchOpts submits tasks with overload-protection options, in the
// binary submit body (webservice.EncodeSubmitBody), so payload bytes travel
// verbatim, and reads the binary task-ID reply. Setting IdempotencyKey makes the POST safely retryable — the
// retry loop in send() can replay it after a lost response and receive the
// original task IDs.
func (c *Client) SubmitBatchOpts(tasks []webservice.SubmitRequest, opts webservice.SubmitOptions) ([]protocol.UUID, error) {
	if len(tasks) == 0 {
		return nil, errors.New("sdk: empty batch")
	}
	data, ct, err := c.send("POST", "/v2/submit", webservice.SubmitContentType, webservice.EncodeSubmitBody(tasks, opts))
	if err != nil {
		return nil, err
	}
	if ct != protocol.TaskIDsMediaType {
		return nil, fmt.Errorf("sdk: submit reply is %q, want %s", ct, protocol.TaskIDsMediaType)
	}
	ids, err := protocol.DecodeTaskIDs(data)
	if err != nil {
		return nil, fmt.Errorf("sdk: decode submit reply: %w", err)
	}
	if len(ids) != len(tasks) {
		return nil, fmt.Errorf("sdk: submitted %d tasks, got %d IDs", len(tasks), len(ids))
	}
	return ids, nil
}

// TaskStatus polls one task.
func (c *Client) TaskStatus(id protocol.UUID) (webservice.TaskStatus, error) {
	var st webservice.TaskStatus
	err := c.do("GET", "/v2/tasks/"+string(id), nil, &st)
	return st, err
}

// SearchEndpoints discovers endpoints by name or metadata substring (the
// paper's discovery path for multi-user endpoint IDs).
func (c *Client) SearchEndpoints(query string) ([]webservice.EndpointSummary, error) {
	var resp struct {
		Endpoints []webservice.EndpointSummary `json:"endpoints"`
	}
	path := "/v2/endpoints"
	if query != "" {
		path += "?search=" + url.QueryEscape(query)
	}
	if err := c.do("GET", path, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Endpoints, nil
}

// TaskStatuses polls many tasks in one REST call (batch_status).
func (c *Client) TaskStatuses(ids []protocol.UUID) ([]webservice.TaskStatus, error) {
	var resp struct {
		Tasks []webservice.TaskStatus `json:"tasks"`
	}
	err := c.do("POST", "/v2/tasks/batch_status", map[string]any{"task_ids": ids}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Tasks, nil
}

// CancelTask requests cancellation of a non-terminal task the token's
// identity owns.
func (c *Client) CancelTask(id protocol.UUID) error {
	return c.do("POST", "/v2/tasks/"+string(id)+"/cancel", nil, nil)
}

// Usage fetches aggregate service statistics.
func (c *Client) Usage() (webservice.UsageStats, error) {
	var u webservice.UsageStats
	err := c.do("GET", "/v2/usage", nil, &u)
	return u, err
}
