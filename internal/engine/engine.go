// Package engine implements the GlobusComputeEngine pilot-job runtime: an
// interchange that queues tasks and dispatches them to managers, one manager
// per provisioned block (pilot job), each hosting a pool of workers sized by
// the workers-per-node configuration. The engine scales blocks elastically
// through a Provider (min/max blocks, scale-out on backlog, scale-in on
// idle), mirroring Parsl's HighThroughputExecutor as wrapped by Globus
// Compute.
package engine

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"globuscompute/internal/deque"
	"globuscompute/internal/metrics"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/trace"
)

// Common errors.
var (
	ErrStopped    = errors.New("engine: stopped")
	ErrNotStarted = errors.New("engine: not started")
)

// WorkerInfo identifies the worker executing a task.
type WorkerInfo struct {
	ID      string
	Node    string
	BlockID string
}

// TaskRunner executes one task on a worker and produces its result. The
// context is cancelled when the hosting block is released (walltime or
// scale-in); runners should produce a result promptly in that case.
// Returning a zero Result (empty State) signals that the worker died
// mid-task without producing an outcome: the engine retries the task under
// its attempt budget (see Config.MaxAttempts) — the seam fault-injection
// harnesses use to simulate worker kills.
//
// Result identity is stamped centrally by the engine: TaskID, WorkerID,
// timing fields, and the trace context are set on every produced result in
// workerLoop, so runners only need to fill State, Output, and Error.
type TaskRunner func(ctx context.Context, task protocol.Task, w WorkerInfo) protocol.Result

// Config configures an engine.
type Config struct {
	Provider provider.Provider
	Run      TaskRunner
	// WorkersPerNode sizes each manager's worker pool (default 1).
	WorkersPerNode int
	// InitBlocks blocks are provisioned at Start (default MinBlocks).
	InitBlocks int
	// MinBlocks is the scale-in floor (default 0).
	MinBlocks int
	// MaxBlocks is the scale-out ceiling (default 1).
	MaxBlocks int
	// ScalingInterval is the strategy poll period (default 50ms).
	ScalingInterval time.Duration
	// IdleTimeout releases blocks idle this long when above MinBlocks
	// (default: never).
	IdleTimeout time.Duration
	// QueueCapacity bounds the interchange backlog (default 65536).
	QueueCapacity int
	// MaxAttempts bounds how many times one task may be (re)delivered to a
	// worker before the engine gives up and emits a dead-lettered failed
	// result (default 5; the poison-task escape hatch). Requeues caused by
	// worker crashes, dying managers, and dropped interchange connections
	// all consume attempts.
	MaxAttempts int
	// Transport selects how managers attach to the interchange:
	// "channel" (default, in-process) or "tcp" (framed TCP, the real
	// engine's multiplexed-connection topology).
	Transport string
	// Tracer, when set, records engine.queue and engine.execute spans for
	// traced tasks. Nil disables tracing.
	Tracer *trace.Tracer
}

func (c *Config) fill() error {
	if c.Provider == nil {
		return errors.New("engine: provider required")
	}
	if c.Run == nil {
		return errors.New("engine: task runner required")
	}
	if c.WorkersPerNode <= 0 {
		c.WorkersPerNode = 1
	}
	if c.MaxBlocks <= 0 {
		c.MaxBlocks = 1
	}
	if c.MinBlocks < 0 {
		c.MinBlocks = 0
	}
	if c.MinBlocks > c.MaxBlocks {
		return fmt.Errorf("engine: min blocks %d > max blocks %d", c.MinBlocks, c.MaxBlocks)
	}
	if c.InitBlocks == 0 {
		c.InitBlocks = c.MinBlocks
	}
	if c.InitBlocks > c.MaxBlocks {
		c.InitBlocks = c.MaxBlocks
	}
	if c.ScalingInterval <= 0 {
		c.ScalingInterval = 50 * time.Millisecond
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 65536
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	switch c.Transport {
	case "", "channel":
		c.Transport = "channel"
	case "tcp":
	default:
		return fmt.Errorf("engine: unknown transport %q", c.Transport)
	}
	return nil
}

// manager is the per-block worker pool head. Its workers (on the TCP
// transport, its connection's writer) take tasks from the pending deque.
type manager struct {
	id       string
	blockID  string
	capacity int
	// guarded by engine.mu
	freeSlots  int
	removed    bool
	lastActive time.Time
	// inflight tracks tasks written to a TCP manager but not yet
	// answered, so a dying connection can requeue them, each with its
	// dispatch sequence number (nil in channel mode, where workers always
	// deliver results in-process).
	inflight map[protocol.UUID]sentTask
	sent     uint64
	// slot parks the TCP writer while every remote slot is busy; a result
	// signals it (unused in channel mode).
	slot sync.Cond
	// workers done
	wg sync.WaitGroup
}

// sentTask is a task in a TCP manager's in-flight set.
type sentTask struct {
	seq  uint64
	task protocol.Task
}

// resultBuffer is the results channel's capacity. It does not scale with
// QueueCapacity: the agent's intake bound keeps fewer than a hundred results
// outstanding, and each slot is a Result the GC scans on every cycle.
const resultBuffer = 1024

// Engine is the interchange.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	pending deque.Deque[protocol.Task] // dispatch order; a requeue goes to the front
	// idle parks the takers that could start a task if one were pending:
	// idle in-process workers, and TCP writers whose manager has a free
	// slot. Each accepted or requeued task signals one of them.
	idle     sync.Cond
	managers map[string]*manager
	blocks   map[string]string // block ID -> manager ID ("" until registered)
	started  bool
	stopped  bool
	nextMgr  int

	// qspans holds the open engine.queue span per traced pending task
	// (guarded by mu); ended at dispatch, or with status "dropped" at Stop.
	qspans map[protocol.UUID]trace.ActiveSpan

	results chan protocol.Result
	done    chan struct{}
	loops   sync.WaitGroup
	// ln is the TCP interchange listener (tcp transport only).
	ln net.Listener

	Metrics *metrics.Registry
	// The per-task counters, resolved once from Metrics.
	submitted, dispatched, completed, requeued *metrics.Counter
}

// New validates cfg and returns an engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		managers: make(map[string]*manager),
		blocks:   make(map[string]string),
		qspans:   make(map[protocol.UUID]trace.ActiveSpan),
		results:  make(chan protocol.Result, resultBuffer),
		done:     make(chan struct{}),
		Metrics:  metrics.NewRegistry(),
	}
	e.idle.L = &e.mu
	e.submitted = e.Metrics.Counter("submitted")
	e.dispatched = e.Metrics.Counter("dispatched")
	e.completed = e.Metrics.Counter("completed")
	e.requeued = e.Metrics.Counter("requeued")
	return e, nil
}

// Start provisions initial blocks and begins scaling.
func (e *Engine) Start() error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return errors.New("engine: already started")
	}
	e.started = true
	e.mu.Unlock()
	if e.cfg.Transport == "tcp" {
		if err := e.startInterchange(); err != nil {
			return err
		}
	}
	for i := 0; i < e.cfg.InitBlocks; i++ {
		if err := e.addBlock(); err != nil {
			return err
		}
	}
	e.loops.Add(1)
	go e.scalingLoop()
	return nil
}

// Submit enqueues a task for execution.
func (e *Engine) Submit(task protocol.Task) error {
	if errs := e.SubmitBatch([]protocol.Task{task}); errs != nil {
		return errs[0]
	}
	return nil
}

// SubmitBatch enqueues tasks under a single lock acquisition, waking one
// parked taker per accepted task — the engine half of the endpoint's
// batched intake. It
// returns nil when every task was accepted; otherwise a slice parallel to
// tasks where errs[i] reports task i's rejection (not started, stopped, or
// backlog full). Acceptance is per-task: tasks before a rejected one stay
// enqueued.
func (e *Engine) SubmitBatch(tasks []protocol.Task) []error {
	if len(tasks) == 0 {
		return nil
	}
	e.mu.Lock()
	if !e.started || e.stopped {
		err := ErrNotStarted
		if e.stopped {
			err = ErrStopped
		}
		e.mu.Unlock()
		errs := make([]error, len(tasks))
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	var errs []error
	accepted := 0
	for i := range tasks {
		if e.pending.Len() >= e.cfg.QueueCapacity {
			if errs == nil {
				errs = make([]error, len(tasks))
			}
			errs[i] = fmt.Errorf("engine: backlog full (%d tasks)", e.pending.Len())
			continue
		}
		e.startQueueSpanLocked(&tasks[i])
		e.pending.PushBack(tasks[i])
		accepted++
	}
	e.mu.Unlock()
	if accepted > 0 {
		e.submitted.Add(int64(accepted))
		for i := 0; i < accepted; i++ {
			e.idle.Signal()
		}
	}
	return errs
}

// startQueueSpanLocked opens an engine.queue span for a traced task (caller
// holds e.mu). The task's context is NOT re-pointed: the queue span is a leaf
// measuring backlog wait, and execute chains off the take-time context.
func (e *Engine) startQueueSpanLocked(task *protocol.Task) {
	if e.cfg.Tracer == nil || !task.Trace.Valid() {
		return
	}
	e.qspans[task.ID] = e.cfg.Tracer.StartSpan(task.Trace, "engine.queue")
}

// endQueueSpanLocked closes the task's engine.queue span (caller holds e.mu).
func (e *Engine) endQueueSpanLocked(id protocol.UUID, status string) {
	if sp, ok := e.qspans[id]; ok {
		delete(e.qspans, id)
		sp.EndStatus(status)
	}
}

// Results returns the completed-task stream. It is closed by Stop after all
// inflight work drains.
func (e *Engine) Results() <-chan protocol.Result { return e.results }

// Stats is a point-in-time engine snapshot.
type Stats struct {
	PendingTasks   int
	ConnectedMgrs  int
	TotalWorkers   int
	FreeWorkers    int
	LiveBlocks     int
	TasksSubmitted int64
	TasksCompleted int64
	BlocksLaunched int64
	BlocksReleased int64
}

// Stats reports current engine state.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{
		PendingTasks:   e.pending.Len(),
		LiveBlocks:     len(e.blocks),
		TasksSubmitted: e.submitted.Value(),
		TasksCompleted: e.completed.Value(),
		BlocksLaunched: e.Metrics.Counter("blocks_launched").Value(),
		BlocksReleased: e.Metrics.Counter("blocks_released").Value(),
	}
	for _, m := range e.managers {
		if m.removed {
			continue
		}
		s.ConnectedMgrs++
		s.TotalWorkers += m.capacity
		s.FreeWorkers += m.freeSlots
	}
	return s
}

// Stop drains nothing further: it cancels blocks and waits for inflight
// tasks to produce results. Pending tasks that never started are dropped
// with failed results so callers are not left waiting, and the results
// channel closes after the last of them. Those failures are sent from their
// own goroutine, so Stop returns even when they outnumber the channel's
// buffer and nobody is reading yet.
func (e *Engine) Stop() {
	e.mu.Lock()
	if !e.started || e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	pending := make([]protocol.Task, 0, e.pending.Len())
	for e.pending.Len() > 0 {
		t := e.pending.PopFront()
		e.endQueueSpanLocked(t.ID, "dropped")
		pending = append(pending, t)
	}
	blockIDs := make([]string, 0, len(e.blocks))
	for id := range e.blocks {
		blockIDs = append(blockIDs, id)
	}
	e.mu.Unlock()

	close(e.done)
	for _, id := range blockIDs {
		_ = e.cfg.Provider.CancelBlock(id)
	}
	if e.ln != nil {
		e.ln.Close()
	}
	// Wait for managers to drain (their launch functions return on cancel).
	for {
		e.mu.Lock()
		live := len(e.managers)
		e.mu.Unlock()
		if live == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	e.loops.Wait()
	go func() {
		for _, t := range pending {
			e.results <- protocol.Result{
				TaskID: t.ID, State: protocol.StateFailed,
				Error: "engine stopped before execution",
			}
		}
		close(e.results)
	}()
}

// addBlock provisions one block whose launch function runs a manager
// (in-process or dialing the TCP interchange, per the transport).
func (e *Engine) addBlock() error {
	launch := e.runManager
	if e.cfg.Transport == "tcp" {
		launch = e.runRemoteManager
	}
	blockID, err := e.cfg.Provider.SubmitBlock(launch)
	if err != nil {
		return err
	}
	e.mu.Lock()
	if _, exists := e.blocks[blockID]; !exists {
		e.blocks[blockID] = ""
	}
	e.mu.Unlock()
	e.Metrics.Counter("blocks_launched").Inc()
	return nil
}

// runManager is the pilot-job body: it registers a manager for the block,
// spawns workers, and serves until the block context ends.
func (e *Engine) runManager(ctx context.Context, blk provider.BlockInfo) error {
	capacity := e.blockCapacity(blk)
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return nil
	}
	e.nextMgr++
	m := &manager{
		id:         fmt.Sprintf("mgr-%d", e.nextMgr),
		blockID:    blk.ID,
		capacity:   capacity,
		freeSlots:  capacity,
		lastActive: time.Now(),
	}
	e.managers[m.id] = m
	e.blocks[blk.ID] = m.id
	e.mu.Unlock()

	for i := 0; i < capacity; i++ {
		node := ""
		if len(blk.Nodes) > 0 {
			node = blk.Nodes[i%len(blk.Nodes)]
		}
		w := WorkerInfo{ID: fmt.Sprintf("%s-w%d", m.id, i), Node: node, BlockID: blk.ID}
		m.wg.Add(1)
		go e.workerLoop(ctx, m, w)
	}

	<-ctx.Done()
	// The workers take nothing more; those running a task finish it under
	// the cancelled context. Every pending task stays in the deque.
	e.mu.Lock()
	m.removed = true
	e.mu.Unlock()
	e.idle.Broadcast()
	m.wg.Wait()
	e.mu.Lock()
	delete(e.managers, m.id)
	delete(e.blocks, blk.ID)
	e.mu.Unlock()
	e.Metrics.Counter("blocks_released").Inc()
	return nil
}

// blockCapacity is the worker count of a block: WorkersPerNode per node, and
// at least one node's worth.
func (e *Engine) blockCapacity(blk provider.BlockInfo) int {
	return max(len(blk.Nodes), 1) * e.cfg.WorkersPerNode
}

// requeue returns a crashed or orphaned task to the front of the interchange,
// consuming one delivery attempt. A task that exhausts cfg.MaxAttempts is
// dead-lettered — a failed Result marked DeadLettered is emitted instead of
// requeueing — so a poison task cannot cycle forever. When the engine is
// stopping the task fails immediately.
func (e *Engine) requeue(t protocol.Task) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		e.results <- protocol.Result{
			TaskID: t.ID, State: protocol.StateFailed,
			Error: "engine stopped before execution",
		}
		return
	}
	t.Attempts++
	if t.Attempts >= e.cfg.MaxAttempts {
		e.mu.Unlock()
		e.deadLetter(t)
		return
	}
	now := time.Now()
	e.cfg.Tracer.Record(t.Trace, "engine.requeue", now, now, "attempt", strconv.Itoa(t.Attempts))
	e.startQueueSpanLocked(&t)
	e.pending.PushFront(t)
	e.mu.Unlock()
	e.requeued.Inc()
	e.idle.Signal()
}

// deadLetter emits the terminal failure for a task that exceeded its
// delivery-attempt budget.
func (e *Engine) deadLetter(t protocol.Task) {
	now := time.Now()
	e.cfg.Tracer.Record(t.Trace, "engine.deadletter", now, now, "attempts", strconv.Itoa(t.Attempts))
	// Counted before the result is visible, so a reader of the result reads
	// the counters that include it.
	e.Metrics.Counter("deadlettered_tasks").Inc()
	e.completed.Inc()
	e.results <- protocol.Result{
		TaskID: t.ID, State: protocol.StateFailed, DeadLettered: true,
		Error: fmt.Sprintf("engine: task exceeded %d delivery attempts", e.cfg.MaxAttempts),
		Trace: t.Trace,
	}
}

// workerLoop is one worker: take the front pending task, run it, report
// the result, and take the next.
func (e *Engine) workerLoop(ctx context.Context, m *manager, w WorkerInfo) {
	defer m.wg.Done()
	for busy := false; ; busy = true {
		t, ok := e.take(ctx, m, busy)
		if !ok {
			return
		}
		started := time.Now()
		sp := e.cfg.Tracer.StartSpanAt(t.Trace, "engine.execute", started)
		sp.SetAttr("worker", w.ID)
		sp.SetAttr("block", w.BlockID)
		res := e.cfg.Run(ctx, t, w)
		if res.State == "" {
			// No result produced: the worker died mid-task (a chaos kill or
			// a crashed runner). Retry the task under its attempt budget
			// rather than losing it; the next take frees the slot.
			sp.EndStatus("killed")
			e.Metrics.Counter("worker_crashes").Inc()
			e.requeue(t)
			continue
		}
		res.TaskID = t.ID
		res.WorkerID = w.ID
		if !t.Submitted.IsZero() {
			res.QueueDelay = started.Sub(t.Submitted)
		}
		if res.Started.IsZero() {
			res.Started = started
		}
		if res.Completed.IsZero() {
			res.Completed = time.Now()
		}
		res.ExecutionMS = float64(res.Completed.Sub(res.Started)) / float64(time.Millisecond)
		if res.State == protocol.StateFailed {
			sp.EndStatus("error")
		} else {
			sp.End()
		}
		if next := sp.Context(); next.Valid() {
			res.Trace = next
		} else if !res.Trace.Valid() {
			res.Trace = t.Trace
		}
		e.results <- res
		e.completed.Inc()
	}
}

// take frees the worker's slot when it has just finished a task (busy),
// parks until a task is pending, and takes the front one. It reports false
// once m is removed or its block released (ctx done, even before removal).
func (e *Engine) take(ctx context.Context, m *manager, busy bool) (protocol.Task, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if busy {
		m.freeSlots++
		m.lastActive = time.Now()
	}
	for !m.removed && e.pending.Len() == 0 {
		e.idle.Wait()
	}
	if m.removed || ctx.Err() != nil {
		return protocol.Task{}, false
	}
	return e.popLocked(m), true
}

// popLocked moves the front pending task into one of m's free slots
// (caller holds e.mu).
func (e *Engine) popLocked(m *manager) protocol.Task {
	t := e.pending.PopFront()
	e.endQueueSpanLocked(t.ID, "")
	m.freeSlots--
	m.lastActive = time.Now()
	e.dispatched.Inc()
	return t
}

// scalingLoop implements the elasticity strategy.
func (e *Engine) scalingLoop() {
	defer e.loops.Done()
	ticker := time.NewTicker(e.cfg.ScalingInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-ticker.C:
		}
		e.mu.Lock()
		// Forget blocks that terminated without ever registering a manager
		// (cancelled while queued in the batch system).
		var stale []string
		for blockID, mgrID := range e.blocks {
			if mgrID != "" {
				continue
			}
			if st, err := e.cfg.Provider.BlockStatus(blockID); err == nil && st.Terminal() {
				stale = append(stale, blockID)
			}
		}
		for _, id := range stale {
			delete(e.blocks, id)
		}
		backlog := e.pending.Len()
		live := len(e.blocks)
		perBlock := e.cfg.Provider.NodesPerBlock() * e.cfg.WorkersPerNode
		if perBlock <= 0 {
			perBlock = 1
		}
		// Scale out: enough additional blocks to absorb the backlog,
		// bounded by the ceiling.
		toAdd := 0
		if backlog > 0 && live < e.cfg.MaxBlocks {
			toAdd = min((backlog+perBlock-1)/perBlock, e.cfg.MaxBlocks-live)
		}
		// Scale in: cancel idle managers above the floor.
		var toCancel []string
		if e.cfg.IdleTimeout > 0 && live > e.cfg.MinBlocks {
			cutoff := time.Now().Add(-e.cfg.IdleTimeout)
			excess := live - e.cfg.MinBlocks
			for _, m := range e.managers {
				if excess == 0 {
					break
				}
				if !m.removed && m.freeSlots == m.capacity && m.lastActive.Before(cutoff) {
					toCancel = append(toCancel, m.blockID)
					excess--
				}
			}
		}
		e.mu.Unlock()
		for i := 0; i < toAdd; i++ {
			if err := e.addBlock(); err != nil {
				break
			}
		}
		for _, blockID := range toCancel {
			_ = e.cfg.Provider.CancelBlock(blockID)
		}
	}
}
