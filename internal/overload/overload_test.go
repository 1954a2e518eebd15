// Package overload is the seeded overload-protection suite: it drives the
// full in-process stack (admission, bounded queues, priority sheds) through
// tenant floods and restarts and asserts the four contracts from
// docs/ROBUSTNESS.md: a noisy tenant cannot move a well-behaved tenant's
// p99 beyond 2x its solo baseline; every shed carries a Retry-After hint;
// every admitted task reaches exactly one terminal state; and idempotent
// retries return the original task IDs, including across a -data-dir
// restart. Gated behind GC_OVERLOAD=1 (run via `make overload`) because the
// floods take tens of seconds.
package overload

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/sdk"
	"globuscompute/internal/webservice"
)

const seed = 20240807 // fixed seed: failures reproduce exactly

func gate(t *testing.T) {
	t.Helper()
	if os.Getenv("GC_OVERLOAD") == "" {
		t.Skip("overload suite: set GC_OVERLOAD=1 (run via `make overload`)")
	}
}

// identityPayload builds a raw python-task payload for the builtin identity
// entrypoint, for submits that bypass the Executor.
func identityPayload(t *testing.T, v int) []byte {
	t.Helper()
	b, err := protocol.EncodePayload(protocol.PythonSpec{
		Entrypoint: "identity",
		Args:       []json.RawMessage{json.RawMessage(fmt.Sprintf("%d", v))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func p99(latencies []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted)) * 0.99)
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// runTenantWorkload submits n identity tasks one at a time through an
// executor and returns the submit-to-result latency of each.
func runTenantWorkload(t *testing.T, ex *sdk.Executor, n int, pace time.Duration) []time.Duration {
	t.Helper()
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	latencies := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		fut, err := ex.Submit(fn, i)
		if err != nil {
			t.Fatalf("well-behaved submit %d: %v", i, err)
		}
		if _, err := fut.ResultWithin(30 * time.Second); err != nil {
			t.Fatalf("well-behaved result %d: %v", i, err)
		}
		latencies = append(latencies, time.Since(start))
		time.Sleep(pace)
	}
	return latencies
}

// TestOverloadNoisyNeighborFairness measures a well-behaved tenant's p99
// solo, then re-measures it while a noisy tenant floods the same control
// plane at 10x the well-behaved rate. Per-tenant admission must confine the
// flood: the well-behaved p99 may not move beyond 2x its solo baseline.
func TestOverloadNoisyNeighborFairness(t *testing.T) {
	gate(t)
	adm := scheduler.NewAdmission(scheduler.AdmissionConfig{
		FillRate: 100, Burst: 50, MaxInFlight: 100,
	})
	tb, err := core.NewTestbed(core.Options{Admission: adm, QueueLimit: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	aliceTok, err := tb.IssueToken("alice@uchicago.edu", "uchicago")
	if err != nil {
		t.Fatal(err)
	}
	malloryTok, err := tb.IssueToken("mallory@example.edu", "example")
	if err != nil {
		t.Fatal(err)
	}
	aliceEP, err := tb.StartEndpoint(core.EndpointOptions{Name: "alice-ep", Owner: "alice@uchicago.edu", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	malloryEP, err := tb.StartEndpoint(core.EndpointOptions{Name: "mallory-ep", Owner: "mallory@example.edu", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	aliceClient := sdk.NewClient(tb.ServiceAddr(), aliceTok.Value)
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: aliceClient, EndpointID: aliceEP, Conn: bc,
		Objects: objectstore.NewClient(tb.ObjectsSrv.Addr()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	const tasks = 40
	const pace = 25 * time.Millisecond // ~40 tasks/s: inside alice's bucket
	solo := p99(runTenantWorkload(t, ex, tasks, pace))
	t.Logf("solo p99 = %s", solo)

	// Flood: mallory submits batches as fast as the client allows — 10x the
	// well-behaved rate and far past her own token bucket, so the excess
	// sheds. The flood runs for the whole contended measurement.
	malloryClient := sdk.NewClient(tb.ServiceAddr(), malloryTok.Value)
	malloryClient.MaxRetries = -1 // sheds fail fast; the flood just resubmits
	stopFlood := make(chan struct{})
	var floodWG sync.WaitGroup
	var floodSubmitted, floodShed atomic.Int64
	rng := rand.New(rand.NewSource(seed))
	malloryFn := registerIdentity(t, tb, "mallory@example.edu")
	batches := make([][]webservice.SubmitRequest, 8)
	for i := range batches {
		batch := make([]webservice.SubmitRequest, 8)
		for j := range batch {
			batch[j] = webservice.SubmitRequest{
				EndpointID: malloryEP,
				FunctionID: malloryFn,
				Payload:    identityPayload(t, rng.Intn(1000)),
			}
		}
		batches[i] = batch
	}
	for w := 0; w < 4; w++ {
		floodWG.Add(1)
		go func(w int) {
			defer floodWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopFlood:
					return
				default:
				}
				ids, err := malloryClient.SubmitBatch(batches[(w*13+i)%len(batches)])
				switch {
				case err == nil:
					floodSubmitted.Add(int64(len(ids)))
				case errors.Is(err, sdk.ErrOverloaded):
					floodShed.Add(1)
					time.Sleep(10 * time.Millisecond) // misbehaved: ignores Retry-After
				default:
					t.Errorf("flood submit: %v", err)
					return
				}
			}
		}(w)
	}
	// Let the flood saturate mallory's bucket before measuring.
	time.Sleep(500 * time.Millisecond)

	contended := p99(runTenantWorkload(t, ex, tasks, pace))
	close(stopFlood)
	floodWG.Wait()
	t.Logf("contended p99 = %s (flood: %d admitted, %d shed)",
		contended, floodSubmitted.Load(), floodShed.Load())

	if floodShed.Load() == 0 {
		t.Fatal("flood was never shed: admission is not engaging")
	}
	// A floor keeps the 2x criterion meaningful when the solo baseline is a
	// handful of milliseconds (scheduler jitter alone exceeds 2x there).
	baseline := solo
	if baseline < 150*time.Millisecond {
		baseline = 150 * time.Millisecond
	}
	if contended > 2*baseline {
		t.Fatalf("noisy neighbor moved well-behaved p99 %s -> %s (limit 2x %s)",
			solo, contended, baseline)
	}
}

// registerIdentity registers the builtin identity function directly with
// the testbed's service and returns its ID.
func registerIdentity(t *testing.T, tb *core.Testbed, owner string) protocol.UUID {
	t.Helper()
	id, err := tb.Service.RegisterFunction(owner, protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestOverloadShedsCarryRetryAfter floods a tiny admission budget and
// checks every shed is a typed overload error with a usable retry hint.
func TestOverloadShedsCarryRetryAfter(t *testing.T) {
	gate(t)
	adm := scheduler.NewAdmission(scheduler.AdmissionConfig{
		FillRate: 2, Burst: 4, MaxInFlight: -1,
	})
	tb, err := core.NewTestbed(core.Options{Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tok, err := tb.IssueToken("alice@uchicago.edu", "uchicago")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := tb.StartEndpoint(core.EndpointOptions{Name: "ep", Owner: "alice@uchicago.edu"})
	if err != nil {
		t.Fatal(err)
	}
	client := sdk.NewClient(tb.ServiceAddr(), tok.Value)
	client.MaxRetries = -1
	fn := registerIdentity(t, tb, "alice@uchicago.edu")

	var sheds int
	for i := 0; i < 20; i++ {
		_, err := client.SubmitBatch([]webservice.SubmitRequest{
			{EndpointID: ep, FunctionID: fn, Payload: identityPayload(t, i)},
		})
		if err == nil {
			continue
		}
		if !errors.Is(err, sdk.ErrOverloaded) {
			t.Fatalf("submit %d: non-overload error %v", i, err)
		}
		var oe *sdk.OverloadedError
		if !errors.As(err, &oe) {
			t.Fatalf("submit %d: overload error %T missing typed wrapper", i, err)
		}
		if oe.RetryAfter < time.Second {
			t.Fatalf("submit %d: shed without a usable Retry-After (%s)", i, oe.RetryAfter)
		}
		if oe.RetryAt.Before(time.Now()) {
			t.Fatalf("submit %d: RetryAt deadline already passed", i)
		}
		sheds++
	}
	if sheds == 0 {
		t.Fatal("20 rapid submits against a 4-token burst never shed")
	}
	if got := client.Sheds.Load(); got != int64(sheds) {
		t.Fatalf("client shed counter = %d, want %d", got, sheds)
	}
}

// TestOverloadAdmittedTasksTerminate storms a bounded stack and asserts the
// invariant that makes load shedding safe to retry against: every task the
// service ADMITTED (returned an ID for) reaches exactly one terminal state
// — no losses, no limbo, and no terminal state flipping afterwards.
func TestOverloadAdmittedTasksTerminate(t *testing.T) {
	gate(t)
	adm := scheduler.NewAdmission(scheduler.AdmissionConfig{
		FillRate: 200, Burst: 100, MaxInFlight: 200,
	})
	tb, err := core.NewTestbed(core.Options{Admission: adm, QueueLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tok, err := tb.IssueToken("alice@uchicago.edu", "uchicago")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := tb.StartEndpoint(core.EndpointOptions{Name: "ep", Owner: "alice@uchicago.edu", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	client := sdk.NewClient(tb.ServiceAddr(), tok.Value)
	client.MaxRetries = -1
	fn := registerIdentity(t, tb, "alice@uchicago.edu")

	var mu sync.Mutex
	var admitted []protocol.UUID
	var wg sync.WaitGroup
	var shed atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < 30; i++ {
				batch := make([]webservice.SubmitRequest, 4)
				for j := range batch {
					batch[j] = webservice.SubmitRequest{
						EndpointID: ep, FunctionID: fn,
						Payload: identityPayload(t, rng.Intn(1000)),
					}
				}
				ids, err := client.SubmitBatch(batch)
				if err != nil {
					if !errors.Is(err, sdk.ErrOverloaded) {
						t.Errorf("storm submit: %v", err)
						return
					}
					shed.Add(1)
					time.Sleep(20 * time.Millisecond)
					continue
				}
				mu.Lock()
				admitted = append(admitted, ids...)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(admitted) == 0 {
		t.Fatal("storm admitted nothing")
	}
	t.Logf("storm: %d admitted, %d batch sheds", len(admitted), shed.Load())

	// Every admitted task must settle terminal.
	first := make(map[protocol.UUID]protocol.TaskState, len(admitted))
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range admitted {
		for {
			st, err := tb.Service.GetTask(id)
			if err != nil {
				t.Fatalf("GetTask(%s): %v", id, err)
			}
			if st.State.Terminal() {
				first[id] = st.State
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("admitted task %s stuck in %s", id, st.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Terminal means terminal: re-read after a settling delay and verify no
	// task flipped to a different terminal state (or out of one).
	time.Sleep(250 * time.Millisecond)
	for _, id := range admitted {
		st, err := tb.Service.GetTask(id)
		if err != nil {
			t.Fatalf("GetTask(%s) recheck: %v", id, err)
		}
		if st.State != first[id] {
			t.Fatalf("task %s flipped terminal state %s -> %s", id, first[id], st.State)
		}
	}
}

// TestOverloadIdempotentRetryAcrossRestart submits with an idempotency key
// against a durable (-data-dir) control plane, restarts it, and retries the
// same key: the replay must return the original task IDs because the
// key-to-IDs binding is journaled through the WAL, not held in memory.
func TestOverloadIdempotentRetryAcrossRestart(t *testing.T) {
	gate(t)
	dir := t.TempDir()
	// The shipped durable wiring (gc-webservice -data-dir): journaled
	// statestore and broker plus a file-backed object store.
	open := func() (*webservice.Stack, auth.Token) {
		st, err := webservice.OpenStack(webservice.StackConfig{DataDir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		tok, err := st.Auth.Issue(
			auth.Identity{Username: "alice@uchicago.edu", Provider: "uchicago"},
			[]string{auth.ScopeCompute, auth.ScopeManage}, time.Hour, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		return st, tok
	}

	st, tok := open()
	svc := st.Service
	ep, err := svc.RegisterEndpoint(webservice.RegisterEndpointRequest{Name: "ep", Owner: "alice@uchicago.edu"})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := svc.RegisterFunction("alice@uchicago.edu", protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
	if err != nil {
		t.Fatal(err)
	}
	req := []webservice.SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: identityPayload(t, 1)}}
	ids1, err := svc.SubmitBatch(tok, req, webservice.SubmitOptions{IdempotencyKey: "across-restart"})
	if err != nil {
		t.Fatal(err)
	}
	// Same key before the restart replays in memory.
	ids2, err := svc.SubmitBatch(tok, req, webservice.SubmitOptions{IdempotencyKey: "across-restart"})
	if err != nil || fmt.Sprint(ids2) != fmt.Sprint(ids1) {
		t.Fatalf("pre-restart replay = %v (%v), want %v", ids2, err, ids1)
	}
	if err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart on the same data dir: the retry must still replay.
	st2, tok2 := open()
	defer st2.Close(context.Background())
	svc2 := st2.Service
	ids3, err := svc2.SubmitBatch(tok2, req, webservice.SubmitOptions{IdempotencyKey: "across-restart"})
	if err != nil {
		t.Fatalf("post-restart replay: %v", err)
	}
	if fmt.Sprint(ids3) != fmt.Sprint(ids1) {
		t.Fatalf("post-restart replay = %v, want original %v", ids3, ids1)
	}
	if n := st2.Store.CountTasks(); n != 1 {
		t.Fatalf("task count after replayed retry = %d, want 1", n)
	}
	// A fresh key still mints fresh work.
	ids4, err := svc2.SubmitBatch(tok2, req, webservice.SubmitOptions{IdempotencyKey: "new-after-restart"})
	if err != nil {
		t.Fatal(err)
	}
	if ids4[0] == ids1[0] {
		t.Fatal("distinct key replayed the old task ID")
	}
}
