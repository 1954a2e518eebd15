// Package endpoint implements the Globus Compute Agent for a single-user
// endpoint: it consumes the endpoint's task queue from the broker, routes
// tasks to the pilot-job engine (python/shell kinds) or the MPI engine (MPI
// kind), and publishes results to the endpoint's result queue, heartbeating
// its status and load to the web service. OpenStack (stack.go) is the one
// place an endpoint is assembled: gc-endpoint, the MEP spawner and
// core.Testbed all start theirs through it.
package endpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/engine"
	"globuscompute/internal/metrics"
	"globuscompute/internal/mpiengine"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/proxystore"
	"globuscompute/internal/registry"
	"globuscompute/internal/shellfn"
	"globuscompute/internal/statestore"
	"globuscompute/internal/trace"
)

// ObjectFetcher resolves payload references spilled to the object store.
type ObjectFetcher = objectstore.Fetcher

// ObjectStorer spills large blobs to the object store by content key — the
// write side of the pass-by-reference data plane (objectstore.Store and
// objectstore.Client both implement it).
type ObjectStorer interface {
	PutContent(data []byte) (string, error)
}

// HeartbeatSink takes the agent's heartbeats: liveness, the load report and,
// at most once per MetricsInterval, a delta-encoded metrics snapshot (nil
// otherwise). sdk.Client.Heartbeat posts them over REST;
// webservice.Service.RecordHeartbeat takes them in process.
type HeartbeatSink func(id protocol.UUID, online bool, load *statestore.EndpointLoad, snap *metrics.Snapshot) error

// prefetch bounds in-flight task deliveries and caps how many are decoded,
// submitted and acked per task-loop wakeup: one delivery frame.
const prefetch = broker.MaxDeliveryBatch

// Config assembles an agent.
type Config struct {
	EndpointID protocol.UUID
	Conn       broker.Conn
	// Engine executes python and shell tasks (required).
	Engine *engine.Engine
	// MPI executes MPI tasks (optional; MPI tasks fail without it).
	MPI *mpiengine.Engine
	// Objects is not read by the agent: payload references resolve in the
	// task runner (RunnerConfig.Objects). The field stays because benchmark/
	// sets it.
	Objects ObjectFetcher
	// Spill, with SpillThreshold > 0, spills result outputs larger than the
	// threshold to the object store on the endpoint side: the result then
	// crosses the broker as a content-addressed OutputRef instead of inline
	// bytes. A spill failure falls back to inline (correctness over
	// optimization).
	Spill          ObjectStorer
	SpillThreshold int
	// Heartbeat, when set, receives a report at Start, every
	// HeartbeatInterval (default 5s) with online=true, and one with
	// online=false when Stop has drained.
	Heartbeat         HeartbeatSink
	HeartbeatInterval time.Duration
	// MetricsInterval decimates heartbeat-piggybacked metrics snapshots:
	// SnapshotMetrics yields a delta at most once per interval (default
	// 2×HeartbeatInterval), so most heartbeats stay payload-free.
	MetricsInterval time.Duration
	// Tracer, when set, records an endpoint.dispatch span per traced task
	// and carries trace context on published results. Nil disables tracing.
	Tracer *trace.Tracer
}

// Agent is a running endpoint.
type Agent struct {
	cfg Config

	mu      sync.Mutex
	started bool
	stopped bool

	sub  broker.Subscription
	done chan struct{}
	wg   sync.WaitGroup
	// intakeDone closes when taskLoop has returned: nothing is submitted to
	// the engines after it.
	intakeDone chan struct{}

	// failures carries the results of tasks refused at intake, with room
	// for a whole drain so taskLoop never waits on a publisher; taskLoop
	// closes it on return. The publishers read sources: the engines' result
	// channels and failures.
	failures chan protocol.Result
	sources  resultSources
	// gatherTurn holds the one token a publisher takes to gather a flush.
	gatherTurn chan struct{}
	// egressBacklog counts results the publishers have taken but not yet
	// published; egressPending adds those still buffered in the sources.
	egressBacklog atomic.Int64

	// ackQ hands each drain's tags to the ackers; taskLoop swaps its filled
	// tags for a free buffer from ackFree, which takes a flight slot. acks
	// tracks the ackers so taskLoop exits only after the last ack lands.
	tags    []uint64
	ackFree chan []uint64
	ackQ    chan []uint64
	acks    sync.WaitGroup

	// engTasks and engSpans are taskLoop's per-drain scratch: they live as
	// long as the loop, and processDeliveries clears the prefix it used.
	engTasks []protocol.Task
	engSpans []trace.ActiveSpan

	// lastActivity is the unix-nano time of the last task receipt or
	// result publication, used by multi-user endpoints to reap idle user
	// endpoints.
	lastActivity atomic.Int64

	// snapMu guards the piggyback snapshot state: the last absolute snapshot
	// (the delta base) and when it was taken (the decimation clock).
	snapMu     sync.Mutex
	lastSnap   metrics.Snapshot
	lastSnapAt time.Time

	log *obs.Logger

	Metrics *metrics.Registry
}

// LastActivity reports when the agent last received a task or published a
// result (start time if never).
func (a *Agent) LastActivity() time.Time {
	return time.Unix(0, a.lastActivity.Load())
}

// SnapshotLoad samples the agent's current utilization: the load report its
// heartbeats carry.
func (a *Agent) SnapshotLoad() statestore.EndpointLoad {
	var l statestore.EndpointLoad
	if a.cfg.Engine != nil {
		s := a.cfg.Engine.Stats()
		l.PendingTasks = s.PendingTasks
		l.TotalWorkers = s.TotalWorkers
		l.FreeWorkers = s.FreeWorkers
	}
	if a.cfg.MPI != nil {
		s := a.cfg.MPI.Stats()
		l.PendingTasks += s.Pending
		l.TotalWorkers += s.TotalNodes
		l.FreeWorkers += s.FreeNodes
	}
	l.TasksReceived = a.Metrics.Counter("tasks_received").Value()
	l.ResultsPublished = a.Metrics.Counter("results_published").Value()
	backlog := int(a.egressPending())
	l.EgressBacklog = &backlog
	return l
}

// egressPending counts finished results not yet published: those the
// publishers hold and those still buffered in the engines' result channels
// and the agent's own.
func (a *Agent) egressPending() int64 {
	n := a.egressBacklog.Load()
	for _, ch := range a.sources {
		n += int64(len(ch))
	}
	return n
}

// Busy reports whether any tasks are pending, executing, or awaiting result
// publication.
func (a *Agent) Busy() bool {
	if a.egressPending() > 0 {
		return true
	}
	if a.cfg.Engine != nil {
		s := a.cfg.Engine.Stats()
		if s.PendingTasks > 0 || s.TasksCompleted < s.TasksSubmitted {
			return true
		}
	}
	if a.cfg.MPI != nil {
		s := a.cfg.MPI.Stats()
		if s.Pending > 0 || s.FreeNodes < s.TotalNodes {
			return true
		}
	}
	return false
}

// New validates cfg and builds an agent.
func New(cfg Config) (*Agent, error) {
	if !cfg.EndpointID.Valid() {
		return nil, fmt.Errorf("endpoint: invalid endpoint ID %q", cfg.EndpointID)
	}
	if cfg.Conn == nil {
		return nil, errors.New("endpoint: broker connection required")
	}
	if cfg.Engine == nil {
		return nil, errors.New("endpoint: engine required")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 5 * time.Second
	}
	if cfg.MetricsInterval <= 0 {
		cfg.MetricsInterval = 2 * cfg.HeartbeatInterval
	}
	a := &Agent{
		cfg:        cfg,
		done:       make(chan struct{}),
		intakeDone: make(chan struct{}),
		failures:   make(chan protocol.Result, prefetch),
		gatherTurn: make(chan struct{}, 1),
		tags:       make([]uint64, 0, prefetch),
		ackFree:    make(chan []uint64, ackFlightCap),
		ackQ:       make(chan []uint64, ackFlightCap),
		Metrics:    metrics.NewRegistry(),
	}
	a.gatherTurn <- struct{}{}
	a.sources = resultSources{cfg.Engine.Results(), nil, a.failures}
	if cfg.MPI != nil {
		a.sources[1] = cfg.MPI.Results()
	}
	a.log = obs.Component("endpoint").WithEndpoint(string(cfg.EndpointID))
	a.lastActivity.Store(time.Now().UnixNano())
	return a, nil
}

// SnapshotMetrics returns a delta-encoded snapshot of the agent's and its
// engines' registries for heartbeat piggybacking, or ok=false when the
// decimation interval has not elapsed since the last snapshot. Load gauges
// (pending_tasks, total_workers, free_workers, egress_backlog) are refreshed
// first so the fleet store sees them as series, and engine registries merge
// under engine_/mpiengine_ prefixes. The result is size-capped; values are
// absolute, so a delta lost in transit self-heals on the next change.
func (a *Agent) SnapshotMetrics(now time.Time) (metrics.Snapshot, bool) {
	a.snapMu.Lock()
	defer a.snapMu.Unlock()
	if !a.lastSnapAt.IsZero() && now.Sub(a.lastSnapAt) < a.cfg.MetricsInterval {
		return metrics.Snapshot{}, false
	}
	l := a.SnapshotLoad()
	a.Metrics.Gauge("pending_tasks").Set(int64(l.PendingTasks))
	a.Metrics.Gauge("total_workers").Set(int64(l.TotalWorkers))
	a.Metrics.Gauge("free_workers").Set(int64(l.FreeWorkers))
	a.Metrics.Gauge("egress_backlog").Set(int64(*l.EgressBacklog))

	var s metrics.Snapshot
	s.Merge("", a.Metrics.TakeSnapshot())
	if a.cfg.Engine != nil {
		s.Merge("engine_", a.cfg.Engine.Metrics.TakeSnapshot())
	}
	if a.cfg.MPI != nil {
		s.Merge("mpiengine_", a.cfg.MPI.Metrics.TakeSnapshot())
	}
	s.Bound(obs.DefaultMaxSeries) // the fleet store keeps no more per endpoint
	d := s.Delta(a.lastSnap)
	a.lastSnap = s
	a.lastSnapAt = now
	return d, true
}

// Start launches the engines, begins consuming tasks, and starts the result
// publishers and heartbeats.
func (a *Agent) Start() error {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return errors.New("endpoint: already started")
	}
	a.started = true
	a.mu.Unlock()

	if err := a.cfg.Engine.Start(); err != nil {
		return fmt.Errorf("endpoint: start engine: %w", err)
	}
	if a.cfg.MPI != nil {
		if err := a.cfg.MPI.Start(); err != nil {
			return fmt.Errorf("endpoint: start mpi engine: %w", err)
		}
	}
	sub, err := a.cfg.Conn.Subscribe(protocol.TaskQueue(a.cfg.EndpointID), prefetch)
	if err != nil {
		return fmt.Errorf("endpoint: consume tasks: %w", err)
	}
	a.sub = sub

	a.startAckers()
	a.wg.Add(1 + egressFlightCap)
	go a.taskLoop()
	for i := 0; i < egressFlightCap; i++ {
		go a.publishLoop()
	}
	if a.cfg.Heartbeat != nil {
		a.heartbeat(true)
		a.wg.Add(1)
		go a.heartbeatLoop()
	}
	return nil
}

// taskLoop is the batched intake pump: each wakeup drains up to the intake
// budget of buffered deliveries, decodes them (in parallel for large
// drains), submits the whole batch to the engines, and acknowledges every
// tag in one round trip.
func (a *Agent) taskLoop() {
	defer a.wg.Done()
	defer a.acks.Wait()
	defer close(a.ackQ)
	defer close(a.failures)
	defer close(a.intakeDone)
	batch := make([]broker.Message, 0, prefetch)
	for {
		a.waitForCapacity()
		m, ok := <-a.sub.Messages()
		if !ok {
			return
		}
		select {
		case <-a.done:
			// Stopping: deliveries still buffered on this side stay unacked, so
			// the Cancel in Stop requeues them for the next agent. Keep reading
			// until the stream closes.
			continue
		default:
		}
		batch = append(batch[:0], m)
		budget := a.intakeBudget()
	drain:
		for len(batch) < budget {
			select {
			case m2, ok := <-a.sub.Messages():
				if !ok {
					break drain
				}
				batch = append(batch, m2)
			default:
				break drain
			}
		}
		a.processDeliveries(batch)
		batch = clearPrefix(batch)
	}
}

// intakeHighWater is the engine-backlog multiple (of total workers) past
// which intake pauses entirely.
const intakeHighWater = 2

// ackFlightCap is the number of ackers, and so bounds ack round trips in
// flight (see processDeliveries).
const ackFlightCap = 2

// highWater is the engine backlog at which intake stops pulling: a multiple
// of the worker count, floored at one full intake batch (prefetch) so a
// fast-draining engine is never throttled below batch granularity.
func (a *Agent) highWater(totalWorkers int) int {
	return max(intakeHighWater*totalWorkers, prefetch)
}

// intakeBudget sizes the next drain: the room left under the engine's
// backlog high-water mark plus one round of workers, clamped to
// [1, prefetch]. An idle engine gets a full batch, one near saturation a
// trickle.
func (a *Agent) intakeBudget() int {
	s := a.cfg.Engine.Stats()
	return min(max(a.highWater(s.TotalWorkers)+s.TotalWorkers-s.PendingTasks, 1), prefetch)
}

// waitForCapacity blocks while the engine backlog exceeds its high-water
// mark, so a saturated engine stops pulling deliveries it cannot start.
// Messages left unacked on the broker throttle delivery at the prefetch
// window — backpressure propagates upstream instead of queueing inside the
// agent. A fast engine drains in microseconds, so the wait spins on the
// scheduler before falling back to short sleeps. It also returns when the
// agent is stopping.
func (a *Agent) waitForCapacity() {
	for spins := 0; ; spins++ {
		s := a.cfg.Engine.Stats()
		if s.TotalWorkers == 0 || s.PendingTasks <= a.highWater(s.TotalWorkers) {
			return
		}
		if spins < 64 {
			runtime.Gosched()
			continue
		}
		select {
		case <-a.done:
			return
		default:
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// processDeliveries decodes, dispatches, and acknowledges one intake batch.
func (a *Agent) processDeliveries(batch []broker.Message) {
	// Dispatch: engine tasks batch-submit under one engine lock; MPI tasks
	// submit individually (rare, and the MPI engine runs its own dispatch).
	tags, engTasks, engSpans := a.tags, a.engTasks, a.engSpans
	received := 0
	for i := range batch {
		task, err := protocol.DecodeTask(batch[i].Body)
		if err != nil {
			a.log.Warn("malformed task dead-lettered", "error", err)
			// Poison messages dead-letter to tasks.<ep>.dlq for operator
			// inspection rather than redelivering forever.
			if rerr := a.sub.Reject(batch[i].Tag); rerr != nil {
				tags = append(tags, batch[i].Tag)
			}
			a.Metrics.Counter("dead_lettered").Inc()
			continue
		}
		// Continue the trace: the delivery context (broker transit span) is
		// preferred; the task body's context covers untraced transports.
		parent := batch[i].Trace
		if !parent.Valid() {
			parent = task.Trace
		}
		sp := a.cfg.Tracer.StartSpan(parent, "endpoint.dispatch")
		sp.SetAttr("endpoint", string(a.cfg.EndpointID))
		if next := sp.Context(); next.Valid() {
			task.Trace = next
		}
		tags = append(tags, batch[i].Tag)
		received++
		if task.Kind == protocol.KindMPI {
			if a.cfg.MPI == nil {
				sp.EndStatus("error")
				a.fail(&task, "endpoint has no MPI engine configured", "rejected_mpi")
				continue
			}
			err := a.cfg.MPI.Submit(task)
			sp.End()
			if err != nil {
				a.fail(&task, err.Error(), "submit_errors")
			}
			continue
		}
		engTasks = append(engTasks, task)
		engSpans = append(engSpans, sp)
	}

	if len(engTasks) > 0 {
		errs := a.cfg.Engine.SubmitBatch(engTasks)
		for i := range engSpans {
			engSpans[i].End()
			if errs == nil || errs[i] == nil {
				continue
			}
			// Invalid tasks fail permanently; transient backlog errors
			// would also land here — report rather than redeliver forever.
			a.fail(&engTasks[i], errs[i].Error(), "submit_errors")
		}
	}
	a.engTasks, a.engSpans = clearPrefix(engTasks), clearPrefix(engSpans)

	// Acknowledge the whole drain at once, without blocking the loop: an
	// ack's only job is to move the delivery window, and a round trip spent
	// waiting on its reply is a round trip the next drain isn't running. The
	// small flight bound keeps unacked tags from piling up unboundedly when
	// the broker slows down.
	if len(tags) > 0 {
		free := <-a.ackFree
		a.ackQ <- tags
		tags = free
	}
	a.tags = tags
	if received > 0 {
		a.Metrics.Counter("tasks_received").Add(int64(received))
		a.Metrics.Counter("intake_batches").Inc()
		a.lastActivity.Store(time.Now().UnixNano())
	}
}

// startAckers starts the ackFlightCap ackers, each with a free tag buffer
// of its own. An acker sends the buffers taskLoop hands it, one Ack per
// drain, and returns each emptied.
func (a *Agent) startAckers() {
	a.acks.Add(ackFlightCap)
	for i := 0; i < ackFlightCap; i++ {
		a.ackFree <- make([]uint64, 0, prefetch)
		go func() {
			defer a.acks.Done()
			for tags := range a.ackQ {
				_ = a.sub.Ack(tags...)
				a.ackFree <- tags[:0]
			}
		}()
	}
}

// fail hands the publishers the failed result of a task refused at intake,
// counted under counter.
func (a *Agent) fail(t *protocol.Task, msg, counter string) {
	a.Metrics.Counter(counter).Inc()
	a.failures <- protocol.Result{TaskID: t.ID, State: protocol.StateFailed, Error: msg, Trace: t.Trace}
}

// egressFlightCap is the number of publishers, and so bounds flush
// publishes in flight. A synchronous publish round trip would otherwise
// serialize egress at one flush per RTT; a few overlapping flushes hide that
// latency, and when every publisher is busy the results wait in their
// channels — which is exactly when they coalesce into larger batches.
const egressFlightCap = 4

// egressMaxBatch caps results coalesced into one flush.
const egressMaxBatch = 64

// egressBuf is one flush: its results and, once encoded, their bodies and
// trace contexts.
type egressBuf struct {
	results []protocol.Result
	bodies  [][]byte
	traces  []trace.Context
}

// publishLoop is one of egressFlightCap long-lived publishers, each with a
// flush buffer of its own. The publisher holding the gather turn waits for
// the next finished result and takes everything already buffered, up to
// egressMaxBatch; it passes the turn on before publishing, so the next one
// gathers while this flush is on the wire, and batch size adapts to load
// without adding latency at idle. Results from one source keep completion
// order within a flush; concurrent flushes may interleave (tasks are
// independent). A publisher returns once every source is closed.
func (a *Agent) publishLoop() {
	defer a.wg.Done()
	buf := &egressBuf{
		results: make([]protocol.Result, 0, egressMaxBatch),
		bodies:  make([][]byte, 0, egressMaxBatch),
		traces:  make([]trace.Context, 0, egressMaxBatch),
	}
	src := a.sources // this publisher's view
	for {
		<-a.gatherTurn
		res, ok := src.wait()
		if !ok {
			a.gatherTurn <- struct{}{}
			return
		}
		batch := src.drain(append(buf.results, res))
		a.egressBacklog.Add(int64(len(batch)))
		a.gatherTurn <- struct{}{}
		buf.results = batch
		a.publishResults(buf)
		// Cleared before the backlog drops, so a drained backlog means no
		// buffer still holds a result.
		buf.results, buf.bodies = clearPrefix(buf.results), clearPrefix(buf.bodies)
		buf.traces = buf.traces[:0]
		a.egressBacklog.Add(-int64(len(batch)))
	}
}

// resultSources are one publisher's views of the result channels: the
// engine's, the MPI engine's and the agent's own. A channel seen closed is
// set to nil.
type resultSources [3]<-chan protocol.Result

// wait receives the next result from any open channel. It reports false
// once every channel is closed.
func (s *resultSources) wait() (protocol.Result, bool) {
	for s[0] != nil || s[1] != nil || s[2] != nil {
		i := 0
		var res protocol.Result
		var ok bool
		select {
		case res, ok = <-s[0]:
		case res, ok = <-s[1]:
			i = 1
		case res, ok = <-s[2]:
			i = 2
		}
		if ok {
			return res, true
		}
		s[i] = nil
	}
	return protocol.Result{}, false
}

// drain appends the results already buffered in the channels, up to
// egressMaxBatch. Only the publisher holding the gather turn receives, so a
// non-empty buffer is a receive that cannot block.
func (s *resultSources) drain(batch []protocol.Result) []protocol.Result {
	for _, ch := range s {
		for len(batch) < egressMaxBatch && len(ch) > 0 {
			batch = append(batch, <-ch)
		}
	}
	return batch
}

// publishResults encodes and publishes one egress flush.
func (a *Agent) publishResults(buf *egressBuf) {
	batch := buf.results
	queue := protocol.ResultQueue(a.cfg.EndpointID)
	bodies, traces := buf.bodies, buf.traces
	for i := range batch {
		batch[i].EndpointID = a.cfg.EndpointID
		// Egress-side spill: ship oversized outputs to the object store and
		// publish a content-addressed reference so the broker hot path never
		// carries bulk data.
		if a.cfg.Spill != nil && a.cfg.SpillThreshold > 0 &&
			batch[i].OutputRef == "" && len(batch[i].Output) > a.cfg.SpillThreshold {
			if key, err := a.cfg.Spill.PutContent(batch[i].Output); err == nil {
				a.Metrics.Counter("spill_results").Inc()
				a.Metrics.Counter("spill_result_bytes").Add(int64(len(batch[i].Output)))
				batch[i].OutputRef = key
				batch[i].Output = nil
			} else {
				a.log.WithTask(string(batch[i].TaskID)).
					Warn("result spill failed; sending inline", "error", err)
			}
		}
		bodies = append(bodies, protocol.EncodeResult(&batch[i]))
		traces = append(traces, batch[i].Trace)
	}
	buf.bodies, buf.traces = bodies, traces
	published := len(bodies)
	if err := a.cfg.Conn.PublishBatch(queue, bodies, traces); err != nil {
		// A flush succeeds or fails as a unit, so one flaky publish would sink
		// every batchmate once the conn's retry budget runs out. Fall back to
		// per-result publishes — each with its own retry budget — and accept
		// that results a failed attempt did land go out twice (the task state
		// machine absorbs duplicates).
		a.log.Warn("publish failed; retrying individually", "results", len(bodies), "error", err)
		published = 0
		for i := range bodies {
			if perr := a.cfg.Conn.PublishBatch(queue, bodies[i:i+1], traces[i:i+1]); perr != nil {
				a.log.WithTask(string(batch[i].TaskID)).WithTrace(traces[i]).
					Error("publish result", "error", perr)
				continue
			}
			published++
		}
		if published == 0 {
			return
		}
	}
	a.Metrics.Counter("results_published").Add(int64(published))
	a.Metrics.Counter("egress_flushes").Inc()
	// Flush size recorded as a duration histogram: one second == one
	// result, so /metrics quantiles read directly as results per flush.
	a.Metrics.Histogram("egress_flush_size").Observe(time.Duration(len(bodies)) * time.Second)
	a.lastActivity.Store(time.Now().UnixNano())
}

// WriteMetrics renders the agent's and its engines' registries in the
// Prometheus text format (the body gc-endpoint serves on /metrics). The
// egress backlog is exported as a gauge sampled at scrape time.
func (a *Agent) WriteMetrics(w io.Writer) error {
	a.Metrics.Gauge("egress_backlog").Set(a.egressPending())
	if err := a.Metrics.WriteText(w, "gc_endpoint"); err != nil {
		return err
	}
	if a.cfg.Engine != nil {
		if err := a.cfg.Engine.Metrics.WriteText(w, "gc_engine"); err != nil {
			return err
		}
	}
	if a.cfg.MPI != nil {
		if err := a.cfg.MPI.Metrics.WriteText(w, "gc_mpiengine"); err != nil {
			return err
		}
	}
	return nil
}

// heartbeat composes one report — status, load and, when the decimation
// interval has elapsed, the metrics snapshot — and hands it to the sink.
func (a *Agent) heartbeat(online bool) {
	load := a.SnapshotLoad()
	var snap *metrics.Snapshot
	if d, ok := a.SnapshotMetrics(time.Now()); ok {
		snap = &d
	}
	if err := a.cfg.Heartbeat(a.cfg.EndpointID, online, &load, snap); err != nil {
		a.log.Warn("heartbeat", "online", online, "error", err)
	}
}

func (a *Agent) heartbeatLoop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-a.done:
			return
		case <-ticker.C:
			a.heartbeat(true)
		}
	}
}

// Stop cancels consumption, drains the engines, and heartbeats offline.
func (a *Agent) Stop() {
	a.mu.Lock()
	if !a.started || a.stopped {
		a.mu.Unlock()
		return
	}
	a.stopped = true
	a.mu.Unlock()

	close(a.done)
	_ = a.sub.Cancel()
	// The engines stop only once intake has: a drain that was already under
	// way is submitted to a live engine, and nothing after it is submitted at
	// all, so no task comes back failed for reaching a stopped engine.
	<-a.intakeDone
	a.cfg.Engine.Stop()
	if a.cfg.MPI != nil {
		a.cfg.MPI.Stop()
	}
	a.wg.Wait()
	if a.cfg.Heartbeat != nil {
		a.heartbeat(false)
	}
}

// RunnerConfig assembles a task runner with optional ProxyStore
// integration: proxied python arguments resolve transparently on the
// worker, and large python results are proxied back by policy (§V-B).
type RunnerConfig struct {
	Registry *registry.Registry
	Shell    shellfn.Options
	Objects  ObjectFetcher
	// Proxies resolves pass-by-reference arguments (nil = references pass
	// through untouched).
	Proxies *proxystore.Registry
	// ProxyStore + ProxyPolicy proxy large results out of band.
	ProxyStore  *proxystore.Store
	ProxyPolicy proxystore.Policy
}

// NewRunner builds the engine TaskRunner for this endpoint: python tasks
// resolve entrypoints in reg; shell tasks execute via shellfn with the
// given defaults; payload references resolve through objects.
func NewRunner(reg *registry.Registry, defaults shellfn.Options, objects ObjectFetcher) engine.TaskRunner {
	return newRunner(RunnerConfig{Registry: reg, Shell: defaults, Objects: objects})
}

// newRunner builds a runner with full configuration.
func newRunner(rc RunnerConfig) engine.TaskRunner {
	reg := rc.Registry
	defaults := rc.Shell
	objects := rc.Objects
	return func(ctx context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
		payload := task.Payload
		if task.PayloadRef != "" {
			if objects == nil {
				return failure(task, "task payload is a reference but endpoint has no object store access")
			}
			blob, err := objects.Get(task.PayloadRef)
			if err != nil {
				return failure(task, fmt.Sprintf("fetch payload %s: %v", task.PayloadRef, err))
			}
			payload = blob
		}
		switch task.Kind {
		case protocol.KindPython:
			spec, err := protocol.DecodePythonSpec(payload)
			if err != nil {
				return failure(task, err.Error())
			}
			// Transparent proxy resolution: arguments that are references
			// materialize from the store before invocation.
			if rc.Proxies != nil {
				for i, raw := range spec.Args {
					resolved, _, err := proxystore.MaybeResolve(rc.Proxies, raw)
					if err != nil {
						return failure(task, fmt.Sprintf("resolve arg %d: %v", i, err))
					}
					spec.Args[i] = resolved
				}
				for k, raw := range spec.Kwargs {
					resolved, _, err := proxystore.MaybeResolve(rc.Proxies, raw)
					if err != nil {
						return failure(task, fmt.Sprintf("resolve kwarg %s: %v", k, err))
					}
					spec.Kwargs[k] = resolved
				}
			}
			out, err := reg.Invoke(ctx, spec.Entrypoint, spec.Args, spec.Kwargs)
			if err != nil {
				return failure(task, err.Error())
			}
			encoded, err := json.Marshal(out)
			if err != nil {
				return failure(task, fmt.Sprintf("encode result: %v", err))
			}
			// Result proxying: large outputs go to the store and only the
			// reference returns through the cloud.
			if rc.ProxyStore != nil && rc.ProxyPolicy.ShouldProxy(len(encoded)) {
				refJSON, proxied, perr := proxystore.MaybeProxy(rc.ProxyStore, rc.ProxyPolicy, json.RawMessage(encoded))
				if perr != nil {
					return failure(task, fmt.Sprintf("proxy result: %v", perr))
				}
				if proxied {
					encoded = refJSON
				}
			}
			return protocol.Result{State: protocol.StateSuccess, Output: encoded}
		case protocol.KindShell:
			var spec protocol.ShellSpec
			if err := protocol.DecodePayload(payload, &spec); err != nil {
				return failure(task, err.Error())
			}
			opts := defaults
			opts.TaskID = string(task.ID)
			opts.Env = mergeEnv(defaults.Env, map[string]string{"GC_NODE": w.Node, "GC_WORKER": w.ID})
			sr, err := shellfn.ExecuteSpec(ctx, spec, opts)
			if err != nil {
				return failure(task, err.Error())
			}
			encoded, err := protocol.EncodePayload(sr)
			if err != nil {
				return failure(task, err.Error())
			}
			return protocol.Result{State: protocol.StateSuccess, Output: encoded}
		default:
			return failure(task, fmt.Sprintf("unsupported task kind %q", task.Kind))
		}
	}
}

// clearPrefix zeroes the used elements of a scratch slice, so it references
// nothing of the batch it held, and returns it emptied for the next one.
func clearPrefix[T any](s []T) []T {
	clear(s)
	return s[:0]
}

func failure(task protocol.Task, msg string) protocol.Result {
	return protocol.Result{TaskID: task.ID, State: protocol.StateFailed, Error: msg}
}

func mergeEnv(base, extra map[string]string) map[string]string {
	out := make(map[string]string, len(base)+len(extra))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}
