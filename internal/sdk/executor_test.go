package sdk_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
	"globuscompute/internal/serialize"
	"globuscompute/internal/webservice"
)

// fakeService stands in for the web service's REST surface so the executor's
// two loops can be driven exactly: it registers functions, assigns fresh task
// IDs to every POST /v2/submit and records each batch's size. beforeReply,
// when set, runs with a batch's IDs before the response is written.
type fakeService struct {
	srv *httptest.Server

	mu          sync.Mutex
	batches     []int
	beforeReply func(ids []protocol.UUID)
}

func newFakeService(t *testing.T) *fakeService {
	t.Helper()
	f := &fakeService{}
	f.srv = httptest.NewServer(http.HandlerFunc(f.serve))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeService) serve(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v2/functions":
		_ = json.NewEncoder(w).Encode(map[string]any{"function_uuid": protocol.NewUUID()})
	case "/v2/submit":
		reqs, _, err := webservice.ReadSubmitBody(r, serialize.MaxPayload)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ids := make([]protocol.UUID, len(reqs))
		for i := range ids {
			ids[i] = protocol.NewUUID()
		}
		f.mu.Lock()
		f.batches = append(f.batches, len(reqs))
		hook := f.beforeReply
		f.mu.Unlock()
		if hook != nil {
			hook(ids)
		}
		webservice.WriteSubmitReply(w, r, ids)
	default:
		http.NotFound(w, r)
	}
}

// client returns an SDK client for the fake service; rt, when set, is its
// HTTP transport.
func (f *fakeService) client(rt http.RoundTripper) *sdk.Client {
	c := sdk.NewClient(strings.TrimPrefix(f.srv.URL, "http://"), "token")
	if rt != nil {
		c.HTTP = &http.Client{Transport: rt}
	}
	return c
}

func (f *fakeService) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batches...)
}

// slowPosts is an HTTP transport whose every POST /v2/submit takes delay. It
// counts the POSTs that started and the ones whose round trip returned.
type slowPosts struct {
	delay             time.Duration
	started, returned atomic.Int64
}

func (s *slowPosts) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != "/v2/submit" {
		return http.DefaultTransport.RoundTrip(r)
	}
	s.started.Add(1)
	defer s.returned.Add(1)
	time.Sleep(s.delay)
	return http.DefaultTransport.RoundTrip(r)
}

// countingConn counts its subscriptions' Ack calls and acknowledged tags. A
// non-nil gate holds Messages() back until release, so deliveries pile up in
// the subscription before the stream loop sees any.
type countingConn struct {
	broker.Conn
	gate       chan struct{}
	once       sync.Once
	acks, tags atomic.Int64
}

func (c *countingConn) release() { c.once.Do(func() { close(c.gate) }) }

// gatedConn wraps the in-process broker in a gated countingConn.
func gatedConn(b *broker.Broker) *countingConn {
	return &countingConn{Conn: broker.LocalConn(b), gate: make(chan struct{})}
}

func (c *countingConn) Subscribe(queue string, prefetch int) (broker.Subscription, error) {
	sub, err := c.Conn.Subscribe(queue, prefetch)
	if err != nil {
		return nil, err
	}
	return &countingSub{Subscription: sub, c: c}, nil
}

type countingSub struct {
	broker.Subscription
	c *countingConn
}

func (s *countingSub) Messages() <-chan broker.Message {
	if s.c.gate != nil {
		<-s.c.gate
	}
	return s.Subscription.Messages()
}

func (s *countingSub) Ack(tags ...uint64) error {
	s.c.acks.Add(1)
	s.c.tags.Add(int64(len(tags)))
	return s.Subscription.Ack(tags...)
}

func newBroker(t *testing.T) *broker.Broker {
	b := broker.New()
	t.Cleanup(b.Close)
	return b
}

func newFakeExecutor(t *testing.T, c *sdk.Client, conn broker.Conn, maxBatch int) *sdk.Executor {
	t.Helper()
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: c, EndpointID: protocol.NewUUID(), Conn: conn, MaxBatch: maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	return ex
}

// submitN submits n identity tasks and returns their futures once every one
// has its task ID.
func submitN(t *testing.T, ex *sdk.Executor, n int) ([]*sdk.Future, []protocol.UUID) {
	t.Helper()
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	futs := make([]*sdk.Future, n)
	for i := range futs {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	return futs, taskIDs(t, futs)
}

func taskIDs(t *testing.T, futs []*sdk.Future) []protocol.UUID {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ids := make([]protocol.UUID, len(futs))
	for i, fut := range futs {
		id, err := fut.TaskID(ctx)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		ids[i] = id
	}
	return ids
}

// resultBody is a streamed success result whose output is the task's own ID,
// so each future's output says whether it got its own result.
func resultBody(t *testing.T, id protocol.UUID) []byte {
	t.Helper()
	body, err := json.Marshal(protocol.Result{
		TaskID: id, State: protocol.StateSuccess, Output: []byte(strconv.Quote(string(id))),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func checkResolved(t *testing.T, futs []*sdk.Future, ids []protocol.UUID) {
	t.Helper()
	for i, fut := range futs {
		out, err := fut.ResultWithin(10 * time.Second)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if want := strconv.Quote(string(ids[i])); string(out) != want {
			t.Errorf("task %d resolved with %s, want %s", i, out, want)
		}
	}
}

// waitQueue waits until the broker shows queue with the given number of
// delivered-but-unacknowledged messages and nothing left to deliver.
func waitQueue(b *broker.Broker, queue string, unacked int) error {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		u, _ := b.Unacked(queue)
		d, _ := b.Depth(queue)
		if u == unacked && d == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("queue %s: %d unacked and %d queued, want %d and 0", queue, u, d, unacked)
		}
	}
}

// TestBatchingCollapsesSubmits is the self-clocked submit: with a POST in
// flight, Submit below MaxBatch returns without waiting for it, and what was
// submitted meanwhile leaves together once it returns.
func TestBatchingCollapsesSubmits(t *testing.T) {
	svc := newFakeService(t)
	rt := &slowPosts{delay: 100 * time.Millisecond}
	client := svc.client(rt)
	ex := newFakeExecutor(t, client, broker.LocalConn(newBroker(t)), 0)
	fn := &sdk.PythonFunction{Entrypoint: "identity"}

	first, err := ex.Submit(fn, 0) // registers the function, then posts alone
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); rt.started.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first submission was never posted")
		}
	}
	const n = 50
	futs := []*sdk.Future{first}
	for i := 1; i <= n; i++ {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	if rt.returned.Load() != 0 {
		t.Fatalf("%d Submit calls outlasted a 100 ms POST: Submit waited on the network", n)
	}
	taskIDs(t, futs)
	// One registration, the first POST, then the 50 in at most two more.
	if further := client.Requests.Load() - 2; further < 1 || further > 2 {
		t.Errorf("%d submissions made during a POST left in %d further POSTs, want 1 or 2 (batches %v)",
			n, further, svc.batchSizes())
	}
}

// TestMaxBatchTriggersImmediateFlush checks that MaxBatch caps tasks per POST
// while POSTs are slow enough for submissions to pile up: the Submit that
// fills a batch posts it itself, and nothing waits for a timer.
func TestMaxBatchTriggersImmediateFlush(t *testing.T) {
	svc := newFakeService(t)
	client := svc.client(&slowPosts{delay: 100 * time.Millisecond})
	const maxBatch, n = 4, 13
	ex := newFakeExecutor(t, client, broker.LocalConn(newBroker(t)), maxBatch)
	submitN(t, ex, n)
	total := 0
	for _, size := range svc.batchSizes() {
		if size > maxBatch {
			t.Errorf("a POST carried %d tasks, want at most MaxBatch=%d (batches %v)", size, maxBatch, svc.batchSizes())
		}
		total += size
	}
	if total != n {
		t.Errorf("POSTs carried %d tasks, want %d", total, n)
	}
}

// TestStreamAcksEachDrainOnce holds the stream loop back until every result
// is already buffered in the subscription, then checks that they resolve
// under a single Ack call carrying every tag.
func TestStreamAcksEachDrainOnce(t *testing.T) {
	svc := newFakeService(t)
	b := newBroker(t)
	conn := gatedConn(b)
	ex := newFakeExecutor(t, svc.client(nil), conn, 0)
	t.Cleanup(conn.release) // before ex.Close, which waits for the stream loop
	const n = 20
	futs, ids := submitN(t, ex, n)

	q := webservice.GroupResultQueue(ex.Group())
	bodies := make([][]byte, n)
	for i, id := range ids {
		bodies[i] = resultBody(t, id)
	}
	if err := b.PublishBatch(q, bodies, nil); err != nil {
		t.Fatal(err)
	}
	if err := waitQueue(b, q, n); err != nil {
		t.Fatal(err)
	}
	conn.release()
	checkResolved(t, futs, ids)
	if err := waitQueue(b, q, 0); err != nil {
		t.Fatal(err)
	}
	if got := conn.acks.Load(); got != 1 {
		t.Errorf("%d buffered results took %d Ack calls, want 1", n, got)
	}
	if got := conn.tags.Load(); got != n {
		t.Errorf("acked %d tags, want %d", got, n)
	}
}

// TestStreamMalformedBodyMidDrain puts an undecodable body in the middle of a
// drain: it is acknowledged with its batchmates, and they all resolve.
func TestStreamMalformedBodyMidDrain(t *testing.T) {
	svc := newFakeService(t)
	b := newBroker(t)
	conn := gatedConn(b)
	ex := newFakeExecutor(t, svc.client(nil), conn, 0)
	t.Cleanup(conn.release)
	futs, ids := submitN(t, ex, 4)

	q := webservice.GroupResultQueue(ex.Group())
	bodies := [][]byte{resultBody(t, ids[0]), resultBody(t, ids[1]), []byte("{not a result"),
		resultBody(t, ids[2]), resultBody(t, ids[3])}
	if err := b.PublishBatch(q, bodies, nil); err != nil {
		t.Fatal(err)
	}
	if err := waitQueue(b, q, len(bodies)); err != nil {
		t.Fatal(err)
	}
	conn.release()
	checkResolved(t, futs, ids)
	// The malformed body was acked with the drain, not left to redeliver.
	if err := waitQueue(b, q, 0); err != nil {
		t.Fatal(err)
	}
	if got := conn.tags.Load(); got != int64(len(bodies)) {
		t.Errorf("acked %d tags, want %d", got, len(bodies))
	}
}

// TestConcurrentSubmitDrain submits from several goroutines while every
// batch's results are streamed as its POST is answered, racing the response:
// every future must resolve, whether its result arrived before or after its
// task ID.
func TestConcurrentSubmitDrain(t *testing.T) {
	svc := newFakeService(t)
	b := newBroker(t)
	ex := newFakeExecutor(t, svc.client(nil), broker.LocalConn(b), 8)
	q := webservice.GroupResultQueue(ex.Group())
	svc.mu.Lock()
	svc.beforeReply = func(ids []protocol.UUID) {
		bodies := make([][]byte, len(ids))
		for i, id := range ids {
			bodies[i] = resultBody(t, id)
		}
		if err := b.PublishBatch(q, bodies, nil); err != nil {
			t.Error(err)
		}
	}
	svc.mu.Unlock()

	const submitters, each = 4, 50
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	futs := make([]*sdk.Future, submitters*each)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				fut, err := ex.Submit(fn, i)
				if err != nil {
					t.Error(err)
					return
				}
				futs[g*each+i] = fut
			}
		}(g)
	}
	wg.Wait()
	deadline := time.After(10 * time.Second)
	for i, fut := range futs {
		select {
		case <-fut.Done():
		case <-deadline:
			t.Fatalf("future %d unresolved after 10s", i)
		}
	}
	checkResolved(t, futs, taskIDs(t, futs))
}

// TestResultBeatsItsPost streams every result of a batch, and waits for the
// stream to take and ack them, before the POST that created the tasks
// returns: the results are held as orphans and resolve once the response
// wires their futures.
func TestResultBeatsItsPost(t *testing.T) {
	svc := newFakeService(t)
	b := newBroker(t)
	ex := newFakeExecutor(t, svc.client(nil), broker.LocalConn(b), 0)
	q := webservice.GroupResultQueue(ex.Group())
	var early atomic.Int64 // results the stream took and acked before their POST returned
	svc.mu.Lock()
	svc.beforeReply = func(ids []protocol.UUID) {
		bodies := make([][]byte, len(ids))
		for i, id := range ids {
			bodies[i] = resultBody(t, id)
		}
		if err := b.PublishBatch(q, bodies, nil); err != nil {
			t.Error(err)
			return
		}
		if err := waitQueue(b, q, 0); err != nil {
			t.Error(err)
			return
		}
		early.Add(int64(len(ids)))
	}
	svc.mu.Unlock()

	futs, ids := submitN(t, ex, 3)
	checkResolved(t, futs, ids)
	if got := early.Load(); got != int64(len(ids)) {
		t.Errorf("%d results were streamed ahead of their POST, want %d", got, len(ids))
	}
}
