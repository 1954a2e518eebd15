package sdk

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/trace"
	"globuscompute/internal/webservice"
)

// ErrExecutorClosed is returned by Submit after Close.
var ErrExecutorClosed = errors.New("sdk: executor closed")

// ObjectFetcher resolves result references spilled to the object store.
type ObjectFetcher = objectstore.Fetcher

// ExecutorConfig configures an Executor.
type ExecutorConfig struct {
	Client     *Client
	EndpointID protocol.UUID
	// Conn enables streamed results over the broker (the efficient path
	// the paper describes). When nil, the executor falls back to polling
	// the REST API.
	Conn broker.Conn
	// PollInterval applies in polling mode (default 100ms).
	PollInterval time.Duration
	// LegacyPolling polls each task with an individual REST request (the
	// pre-executor SDK behaviour) instead of one batch_status call per
	// tick. Kept for the streaming-vs-polling comparison.
	LegacyPolling bool
	// MaxBatch caps submissions per REST call (default 128). Submissions
	// post as soon as the previous POST has returned, so what arrives while
	// one is in flight forms the next batch; once MaxBatch are pending, the
	// Submit that fills the batch posts it itself.
	MaxBatch int
	// Objects resolves large results spilled to the object store.
	Objects ObjectFetcher
	// Tracer, when set, roots a trace per submission (sdk.submit) and
	// records result resolution (sdk.resolve). Nil disables tracing.
	Tracer *trace.Tracer
}

// streamPrefetch is the group-queue subscription's delivery window, and so
// the most results one drain of the stream resolves under one Ack.
const streamPrefetch = broker.MaxDeliveryBatch

// Executor mirrors concurrent.futures.Executor over Globus Compute: Submit
// returns a Future, submissions batch into single REST calls, and results
// stream back over a per-executor group queue.
type Executor struct {
	cfg   ExecutorConfig
	group protocol.UUID

	// UserEndpointConfig parameterizes multi-user endpoints (template
	// variables); set before submitting.
	UserEndpointConfig map[string]any
	// ResourceSpec applies to MPIFunction submissions.
	ResourceSpec protocol.ResourceSpec

	mu sync.Mutex
	// pending is the batch the next POST takes. spare is a posted batch,
	// emptied, that pending swaps to when taken, so the two circulate
	// instead of regrowing from nil.
	pending submitBatch
	spare   submitBatch
	futures map[protocol.UUID]*Future
	orphans map[protocol.UUID]protocol.Result
	closed  bool

	// kick wakes the flusher when submissions are pending (capacity 1: one
	// wake-up covers everything appended before it runs); Close closes it and
	// flushed closes once the flusher has posted the rest and exited.
	kick    chan struct{}
	flushed chan struct{}

	sub  broker.Subscription
	done chan struct{}
	wg   sync.WaitGroup
}

// submitBatch is the submissions of one POST: the requests, and beside
// each the future it resolves and its open sdk.submit root span (nil when
// untraced).
type submitBatch struct {
	reqs  []webservice.SubmitRequest
	futs  []*Future
	spans []*trace.ActiveSpan
}

// NewExecutor builds and starts an executor.
func NewExecutor(cfg ExecutorConfig) (*Executor, error) {
	if cfg.Client == nil {
		return nil, errors.New("sdk: executor requires a client")
	}
	if !cfg.EndpointID.Valid() {
		return nil, fmt.Errorf("sdk: invalid endpoint ID %q", cfg.EndpointID)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 128
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	ex := &Executor{
		cfg:     cfg,
		group:   protocol.NewUUID(),
		futures: make(map[protocol.UUID]*Future),
		orphans: make(map[protocol.UUID]protocol.Result),
		kick:    make(chan struct{}, 1),
		flushed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if cfg.Conn != nil {
		q := webservice.GroupResultQueue(ex.group)
		if err := cfg.Conn.Declare(q); err != nil {
			return nil, fmt.Errorf("sdk: declare group queue: %w", err)
		}
		sub, err := cfg.Conn.Subscribe(q, streamPrefetch)
		if err != nil {
			return nil, fmt.Errorf("sdk: subscribe group queue: %w", err)
		}
		ex.sub = sub
		ex.wg.Add(1)
		go ex.streamLoop()
	} else {
		ex.wg.Add(1)
		go ex.pollLoop()
	}
	go ex.flushLoop()
	return ex, nil
}

// Group returns the executor's task group ID.
func (ex *Executor) Group() protocol.UUID { return ex.group }

// Submit schedules a PythonFunction invocation and returns its future.
func (ex *Executor) Submit(fn *PythonFunction, args ...any) (*Future, error) {
	fnID, err := fn.ensureRegistered(ex.cfg.Client)
	if err != nil {
		return nil, err
	}
	payload, err := fn.payload(args, nil)
	if err != nil {
		return nil, err
	}
	return ex.enqueue(fnID, payload, protocol.ResourceSpec{})
}

// SubmitKwargs is Submit with keyword arguments.
func (ex *Executor) SubmitKwargs(fn *PythonFunction, args []any, kwargs map[string]any) (*Future, error) {
	fnID, err := fn.ensureRegistered(ex.cfg.Client)
	if err != nil {
		return nil, err
	}
	payload, err := fn.payload(args, kwargs)
	if err != nil {
		return nil, err
	}
	return ex.enqueue(fnID, payload, protocol.ResourceSpec{})
}

// SubmitRegistered invokes an already-registered function by UUID — the
// science-gateway pattern, where endpoints restrict execution to a reviewed
// allowlist and clients never register code themselves. The function's
// stored definition supplies the entrypoint (python) or command template
// (shell/MPI); args apply to python functions, kwargs fill shell templates.
func (ex *Executor) SubmitRegistered(fnID protocol.UUID, args []any, kwargs map[string]string) (*Future, error) {
	rec, err := ex.cfg.Client.GetFunction(fnID)
	if err != nil {
		return nil, err
	}
	switch rec.Kind {
	case protocol.KindPython:
		var def struct {
			Entrypoint string `json:"entrypoint"`
		}
		if err := json.Unmarshal(rec.Definition, &def); err != nil || def.Entrypoint == "" {
			return nil, fmt.Errorf("sdk: function %s has no entrypoint in its definition", fnID)
		}
		fn := &PythonFunction{Entrypoint: def.Entrypoint}
		payload, err := fn.payload(args, nil)
		if err != nil {
			return nil, err
		}
		return ex.enqueue(fnID, payload, protocol.ResourceSpec{})
	case protocol.KindShell, protocol.KindMPI:
		var def struct {
			CommandTemplate string `json:"command_template"`
			Launcher        string `json:"launcher"`
			Sandbox         bool   `json:"sandbox"`
		}
		if err := json.Unmarshal(rec.Definition, &def); err != nil || def.CommandTemplate == "" {
			return nil, fmt.Errorf("sdk: function %s has no command template in its definition", fnID)
		}
		sf := &ShellFunction{Command: def.CommandTemplate, Sandbox: def.Sandbox}
		spec, err := sf.shellSpec(kwargs)
		if err != nil {
			return nil, err
		}
		spec.Launcher = def.Launcher
		payload, err := protocol.EncodePayload(spec)
		if err != nil {
			return nil, err
		}
		res := protocol.ResourceSpec{}
		if rec.Kind == protocol.KindMPI {
			res = ex.ResourceSpec
		}
		return ex.enqueue(fnID, payload, res)
	default:
		return nil, fmt.Errorf("sdk: function %s has unknown kind %q", fnID, rec.Kind)
	}
}

// SubmitShell schedules a ShellFunction; kwargs fill the command template's
// {placeholders}.
func (ex *Executor) SubmitShell(fn *ShellFunction, kwargs map[string]string) (*Future, error) {
	fnID, err := fn.ensureRegistered(ex.cfg.Client)
	if err != nil {
		return nil, err
	}
	payload, err := fn.payload(kwargs)
	if err != nil {
		return nil, err
	}
	return ex.enqueue(fnID, payload, protocol.ResourceSpec{})
}

// SubmitMPI schedules an MPIFunction under the executor's ResourceSpec.
func (ex *Executor) SubmitMPI(fn *MPIFunction, kwargs map[string]string) (*Future, error) {
	fnID, err := fn.ensureRegistered(ex.cfg.Client)
	if err != nil {
		return nil, err
	}
	payload, err := fn.payload(kwargs)
	if err != nil {
		return nil, err
	}
	return ex.enqueue(fnID, payload, ex.ResourceSpec)
}

// enqueue buffers one submission and wakes the flusher. It waits on the
// network only when the pending batch reaches MaxBatch (backpressure).
func (ex *Executor) enqueue(fnID protocol.UUID, payload []byte, res protocol.ResourceSpec) (*Future, error) {
	req := webservice.SubmitRequest{
		EndpointID: ex.cfg.EndpointID,
		FunctionID: fnID,
		Payload:    payload,
		Resources:  res,
		GroupID:    ex.group,
	}
	if ex.UserEndpointConfig != nil {
		raw, err := json.Marshal(ex.UserEndpointConfig)
		if err != nil {
			return nil, err
		}
		req.UserEndpointConfig = raw
	}
	fut := newFuture()
	// Each submission roots its own trace; the span covers the wait for the
	// POST in flight plus its own REST round trip. It is held by pointer, so
	// an untraced executor's pending batch carries no span.
	var sp *trace.ActiveSpan
	if ex.cfg.Tracer != nil {
		s := ex.cfg.Tracer.StartSpan(trace.Context{}, "sdk.submit")
		s.SetAttr("endpoint", string(ex.cfg.EndpointID))
		req.Trace, sp = s.Context(), &s
	}
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return nil, ErrExecutorClosed
	}
	p := &ex.pending
	p.reqs, p.futs, p.spans = append(p.reqs, req), append(p.futs, fut), append(p.spans, sp)
	if len(p.reqs) >= ex.cfg.MaxBatch {
		batch := ex.takeBatchLocked()
		ex.mu.Unlock()
		ex.flush(batch)
		return fut, nil
	}
	select {
	case ex.kick <- struct{}{}:
	default: // a wake-up is already due and will take this submission too
	}
	ex.mu.Unlock()
	return fut, nil
}

func (ex *Executor) takeBatchLocked() submitBatch {
	batch := ex.pending
	ex.pending, ex.spare = ex.spare, submitBatch{}
	return batch
}

// recycleLocked keeps a posted batch, its used prefix cleared, as the spare
// unless one is already kept (two flushes can be in flight).
func (ex *Executor) recycleLocked(b submitBatch) {
	if ex.spare.reqs == nil {
		clear(b.reqs)
		clear(b.futs)
		clear(b.spans)
		ex.spare = submitBatch{reqs: b.reqs[:0], futs: b.futs[:0], spans: b.spans[:0]}
	}
}

// flushLoop is the self-clocked submit path: it posts whatever is pending as
// soon as the previous POST has returned, so at low load a submission leaves
// at once and under load what arrives during a POST forms the next batch —
// group commit with one flight, and no timer. It exits once Close has closed
// kick and the last wake-up has posted what was left.
func (ex *Executor) flushLoop() {
	defer close(ex.flushed)
	for range ex.kick {
		ex.mu.Lock()
		batch := ex.takeBatchLocked()
		ex.mu.Unlock()
		ex.flush(batch)
	}
}

// flush submits one batch and wires task IDs to futures.
func (ex *Executor) flush(batch submitBatch) {
	if len(batch.reqs) == 0 {
		return
	}
	ids, err := ex.cfg.Client.SubmitBatch(batch.reqs)
	if err != nil {
		for i, fut := range batch.futs {
			batch.spans[i].EndStatus("error")
			fut.resolve(protocol.Result{}, fmt.Errorf("sdk: submission failed: %w", err))
		}
		ex.mu.Lock()
		ex.recycleLocked(batch)
		ex.mu.Unlock()
		return
	}
	for _, sp := range batch.spans {
		sp.End()
	}
	ex.mu.Lock()
	for i, fut := range batch.futs {
		id := ids[i]
		fut.setTaskID(id)
		if res, ok := ex.orphans[id]; ok {
			delete(ex.orphans, id)
			ex.mu.Unlock()
			ex.resolveTraced(fut, res, trace.Context{})
			ex.mu.Lock()
			continue
		}
		ex.futures[id] = fut
	}
	ex.recycleLocked(batch)
	ex.mu.Unlock()
}

// streamLoop receives results from the group queue: the delivery it blocked
// on plus whatever the subscription already holds (the prefetch window bounds
// that), each resolved in turn, then one Ack for the whole drain.
func (ex *Executor) streamLoop() {
	defer ex.wg.Done()
	msgs := ex.sub.Messages()
	for m := range msgs {
		tags := []uint64{m.Tag}
		ex.receive(m)
	drain:
		for len(tags) < streamPrefetch {
			select {
			case m, ok := <-msgs:
				if !ok {
					break drain
				}
				tags = append(tags, m.Tag)
				ex.receive(m)
			default:
				break drain
			}
		}
		_ = ex.sub.Ack(tags...)
	}
}

// receive resolves one streamed result's future, or holds the result until
// its submit response wires the future (the orphan path). A malformed body is
// logged and dropped; the drain still acknowledges it.
func (ex *Executor) receive(m broker.Message) {
	res, err := protocol.DecodeResult(m.Body)
	if err != nil {
		obs.Component("sdk").WithEndpoint(string(ex.cfg.EndpointID)).
			Warn("bad streamed result", "error", err)
		return
	}
	ex.mu.Lock()
	fut, ok := ex.futures[res.TaskID]
	if ok {
		delete(ex.futures, res.TaskID)
	} else if len(ex.orphans) < 4096 {
		// Result raced ahead of the submit response; hold it. The cap
		// bounds duplicates for already-resolved tasks (e.g. a late
		// worker result after a cancellation).
		ex.orphans[res.TaskID] = res
	}
	ex.mu.Unlock()
	if ok {
		ex.resolveTraced(fut, res, m.Trace)
	}
}

// resolveTraced resolves a future under an sdk.resolve span. parent is the
// delivery's trace context when available (the broker's deliver span);
// otherwise the result's own carried context is used. Results that raced
// ahead of the submit response (the orphan path) resolve here too, so every
// traced task gets a resolution span.
func (ex *Executor) resolveTraced(fut *Future, res protocol.Result, parent trace.Context) {
	if !parent.Valid() {
		parent = res.Trace
	}
	sp := ex.cfg.Tracer.StartSpan(parent, "sdk.resolve")
	sp.SetAttr("task", string(res.TaskID))
	ex.deliver(fut, res)
	sp.End()
}

// deliver resolves a future, fetching spilled outputs first.
func (ex *Executor) deliver(fut *Future, res protocol.Result) {
	if res.OutputRef != "" && len(res.Output) == 0 {
		if ex.cfg.Objects != nil {
			blob, err := ex.cfg.Objects.Get(res.OutputRef)
			if err != nil {
				fut.resolve(protocol.Result{}, fmt.Errorf("sdk: fetch result %s: %w", res.OutputRef, err))
				return
			}
			res.Output = blob
		}
		// Without object store access the caller still gets the reference
		// via Raw().
	}
	fut.resolve(res, nil)
}

// pollLoop is the legacy polling path (kept for the streaming-vs-polling
// comparison): it asks the REST API for the status of every outstanding
// task each interval, one batch_status call per tick.
func (ex *Executor) pollLoop() {
	defer ex.wg.Done()
	ticker := time.NewTicker(ex.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ex.done:
			return
		case <-ticker.C:
		}
		ex.mu.Lock()
		outstanding := make(map[protocol.UUID]*Future, len(ex.futures))
		ids := make([]protocol.UUID, 0, len(ex.futures))
		for id, fut := range ex.futures {
			outstanding[id] = fut
			ids = append(ids, id)
		}
		ex.mu.Unlock()
		if len(ids) == 0 {
			continue
		}
		if ex.cfg.LegacyPolling {
			for _, id := range ids {
				st, err := ex.cfg.Client.TaskStatus(id)
				if err != nil {
					continue // transient; retry next tick
				}
				ex.settlePolled(outstanding, st)
			}
			continue
		}
		// The batch_status API caps request size; chunk large windows.
		const chunk = 1024
		for start := 0; start < len(ids); start += chunk {
			end := min(start+chunk, len(ids))
			statuses, err := ex.cfg.Client.TaskStatuses(ids[start:end])
			if err != nil {
				break // transient; retry next tick
			}
			for _, st := range statuses {
				ex.settlePolled(outstanding, st)
			}
		}
	}
}

// settlePolled resolves a future from a polled status if terminal.
func (ex *Executor) settlePolled(outstanding map[protocol.UUID]*Future, st webservice.TaskStatus) {
	if !st.State.Terminal() {
		return
	}
	fut := outstanding[st.TaskID]
	if fut == nil {
		return
	}
	ex.mu.Lock()
	delete(ex.futures, st.TaskID)
	ex.mu.Unlock()
	ex.deliver(fut, protocol.Result{
		TaskID: st.TaskID, State: st.State,
		Output: st.Result, OutputRef: st.ResultRef, Error: st.Error,
	})
}

// Cancel requests cancellation of a future's task. The future resolves with
// a cancelled result (via the stream or poll loop); tasks already executing
// may still complete first, in which case cancellation returns an error and
// the original result stands.
func (ex *Executor) Cancel(ctx context.Context, fut *Future) error {
	id, err := fut.TaskID(ctx)
	if err != nil {
		return err
	}
	return ex.cfg.Client.CancelTask(id)
}

// Flush forces any buffered submissions out immediately, on the caller's
// goroutine; a POST the flusher already has in flight is not waited for.
func (ex *Executor) Flush() {
	ex.mu.Lock()
	batch := ex.takeBatchLocked()
	ex.mu.Unlock()
	ex.flush(batch)
}

// Close flushes buffered submissions and stops the flusher and the result
// loops. Futures still outstanding resolve only if their results already
// arrived; wait on them first to see them complete.
func (ex *Executor) Close() {
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return
	}
	ex.closed = true
	close(ex.kick)
	ex.mu.Unlock()
	<-ex.flushed
	close(ex.done)
	if ex.sub != nil {
		_ = ex.sub.Cancel()
		// Best effort: remove the per-executor group queue so long-lived
		// brokers don't accumulate them.
		_ = ex.cfg.Conn.Delete(webservice.GroupResultQueue(ex.group))
	}
	ex.wg.Wait()
}
