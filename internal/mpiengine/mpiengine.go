// Package mpiengine implements the GlobusMPIEngine: a runtime that holds one
// or more batch blocks and dynamically partitions their nodes among
// concurrently executing MPIFunctions, each with its own resource
// specification (num_nodes x ranks_per_node). This is the paper's §III-C
// contribution: many MPI applications with varied requirements sharing a
// single batch job.
//
// Commands arrive as protocol.Task with Kind=KindMPI; the ShellSpec payload
// may reference $PARSL_MPI_PREFIX, which the engine resolves to the
// simulated launcher prefix for the nodes it assigns.
package mpiengine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/metrics"
	"globuscompute/internal/mpisim"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
)

// Common errors.
var (
	ErrStopped    = errors.New("mpiengine: stopped")
	ErrNotStarted = errors.New("mpiengine: not started")
	ErrNotMPI     = errors.New("mpiengine: task is not an MPIFunction")
	ErrTooBig     = errors.New("mpiengine: resource spec exceeds block size")
)

// Strategy orders the waiting queue when nodes free up.
type Strategy string

const (
	// FIFO serves requests in arrival order (head-of-line blocking
	// possible).
	FIFO Strategy = "fifo"
	// SmallestFirst packs small applications first, maximizing
	// concurrency.
	SmallestFirst Strategy = "smallest-first"
	// LargestFirst schedules wide applications first, minimizing their
	// wait at the cost of small-app latency.
	LargestFirst Strategy = "largest-first"
)

// Config configures the MPI engine.
type Config struct {
	Provider provider.Provider
	// Launcher names the MPI launcher to simulate (mpiexec, srun).
	Launcher string
	// Strategy orders pending applications (default FIFO).
	Strategy Strategy
}

func (c *Config) fill() error {
	if c.Provider == nil {
		return errors.New("mpiengine: provider required")
	}
	if c.Launcher == "" {
		c.Launcher = "mpiexec"
	}
	if c.Strategy == "" {
		c.Strategy = FIFO
	}
	return nil
}

// partition tracks free nodes within one block.
type partition struct {
	blockID string
	ctx     context.Context
	all     []string
	free    map[string]bool
	removed bool
	apps    sync.WaitGroup
}

type pendingTask struct {
	task protocol.Task
	spec protocol.ShellSpec
	res  protocol.ResourceSpec
	seq  int
}

// queueCapacity bounds the backlog.
const queueCapacity = 4096

// resultBuffer is the results channel's capacity, fixed rather than
// queueCapacity-sized: the agent reads results as they arrive, and at most
// one application per node is running.
const resultBuffer = 1024

// Engine is the MPI runtime.
type Engine struct {
	cfg Config

	mu         sync.Mutex
	partitions map[string]*partition
	pending    []*pendingTask
	seq        int
	started    bool
	stopped    bool

	results chan protocol.Result
	wg      sync.WaitGroup

	Metrics *metrics.Registry
}

// New validates cfg and builds the engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:        cfg,
		partitions: make(map[string]*partition),
		results:    make(chan protocol.Result, resultBuffer),
		Metrics:    metrics.NewRegistry(),
	}, nil
}

// Start provisions the engine's pilot block.
func (e *Engine) Start() error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return errors.New("mpiengine: already started")
	}
	e.started = true
	e.mu.Unlock()
	if _, err := e.cfg.Provider.SubmitBlock(e.runBlock); err != nil {
		return fmt.Errorf("mpiengine: provision block: %w", err)
	}
	return nil
}

// runBlock registers the block's nodes as a partition and serves until the
// block is released.
func (e *Engine) runBlock(ctx context.Context, blk provider.BlockInfo) error {
	p := &partition{
		blockID: blk.ID,
		ctx:     ctx,
		all:     append([]string(nil), blk.Nodes...),
		free:    make(map[string]bool, len(blk.Nodes)),
	}
	for _, n := range blk.Nodes {
		p.free[n] = true
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return nil
	}
	e.partitions[blk.ID] = p
	e.mu.Unlock()
	e.dispatch()

	<-ctx.Done()
	e.mu.Lock()
	p.removed = true
	delete(e.partitions, blk.ID)
	e.mu.Unlock()
	p.apps.Wait() // running apps see ctx cancellation and finish
	return nil
}

// Submit enqueues an MPIFunction task. The resource spec must fit within a
// single block.
func (e *Engine) Submit(task protocol.Task) error {
	if task.Kind != protocol.KindMPI {
		return fmt.Errorf("%w: kind %q", ErrNotMPI, task.Kind)
	}
	var spec protocol.ShellSpec
	if err := protocol.DecodePayload(task.Payload, &spec); err != nil {
		return err
	}
	res, err := task.Resources.Normalize()
	if err != nil {
		return err
	}
	blockSize := e.cfg.Provider.NodesPerBlock()
	if res.NumNodes > blockSize {
		return fmt.Errorf("%w: %d nodes requested, blocks have %d", ErrTooBig, res.NumNodes, blockSize)
	}
	e.mu.Lock()
	if !e.started {
		e.mu.Unlock()
		return ErrNotStarted
	}
	if e.stopped {
		e.mu.Unlock()
		return ErrStopped
	}
	if len(e.pending) >= queueCapacity {
		e.mu.Unlock()
		return fmt.Errorf("mpiengine: backlog full (%d)", len(e.pending))
	}
	e.seq++
	e.pending = append(e.pending, &pendingTask{task: task, spec: spec, res: res, seq: e.seq})
	e.mu.Unlock()
	e.Metrics.Counter("submitted").Inc()
	e.dispatch()
	return nil
}

// Results streams application results; closed by Stop.
func (e *Engine) Results() <-chan protocol.Result { return e.results }

// dispatch assigns pending applications to partitions with enough free
// nodes, in strategy order.
func (e *Engine) dispatch() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	e.orderPendingLocked()
	var still []*pendingTask
	for i := 0; i < len(e.pending); i++ {
		pt := e.pending[i]
		nodes, part := e.acquireLocked(pt.res.NumNodes)
		if nodes == nil {
			still = append(still, pt)
			if e.cfg.Strategy == FIFO {
				// Strict FIFO: nothing may overtake the blocked head.
				still = append(still, e.pending[i+1:]...)
				break
			}
			continue
		}
		e.wg.Add(1)
		part.apps.Add(1)
		go e.runApp(part, pt, nodes)
	}
	e.pending = still
}

// orderPendingLocked sorts the queue per strategy; FIFO keeps arrival order.
func (e *Engine) orderPendingLocked() {
	switch e.cfg.Strategy {
	case SmallestFirst:
		sort.SliceStable(e.pending, func(i, j int) bool {
			if e.pending[i].res.NumNodes != e.pending[j].res.NumNodes {
				return e.pending[i].res.NumNodes < e.pending[j].res.NumNodes
			}
			return e.pending[i].seq < e.pending[j].seq
		})
	case LargestFirst:
		sort.SliceStable(e.pending, func(i, j int) bool {
			if e.pending[i].res.NumNodes != e.pending[j].res.NumNodes {
				return e.pending[i].res.NumNodes > e.pending[j].res.NumNodes
			}
			return e.pending[i].seq < e.pending[j].seq
		})
	default:
		sort.SliceStable(e.pending, func(i, j int) bool { return e.pending[i].seq < e.pending[j].seq })
	}
}

// acquireLocked finds a partition with n free nodes and claims them.
func (e *Engine) acquireLocked(n int) ([]string, *partition) {
	for _, p := range e.partitions {
		if p.removed || len(p.free) < n {
			continue
		}
		nodes := make([]string, 0, n)
		for _, name := range p.all { // deterministic order
			if p.free[name] {
				nodes = append(nodes, name)
				if len(nodes) == n {
					break
				}
			}
		}
		for _, name := range nodes {
			delete(p.free, name)
		}
		return nodes, p
	}
	return nil, nil
}

// runApp executes one MPI application on its acquired nodes.
func (e *Engine) runApp(p *partition, pt *pendingTask, nodes []string) {
	defer e.wg.Done()
	defer p.apps.Done()
	start := time.Now()

	command := pt.spec.Command
	prefix := mpisim.BuildPrefix(e.cfg.Launcher, pt.res.NumRanks, nodes)
	// Resolve $PARSL_MPI_PREFIX: the engine owns placement, so a leading
	// prefix reference is stripped (the simulator pins ranks itself) and
	// recorded in the result command line.
	command = strings.TrimSpace(strings.TrimPrefix(command, "$PARSL_MPI_PREFIX"))

	launcher := pt.spec.Launcher
	if launcher == "" {
		launcher = e.cfg.Launcher
	}
	var walltime time.Duration
	if pt.spec.WalltimeSec > 0 {
		walltime = time.Duration(pt.spec.WalltimeSec * float64(time.Second))
	}
	res, err := mpisim.Launch(p.ctx, mpisim.LaunchSpec{
		Command:      command,
		Nodes:        nodes,
		RanksPerNode: pt.res.RanksPerNode,
		Launcher:     launcher,
		Walltime:     walltime,
		SnippetLines: pt.spec.SnippetLines,
		Env:          pt.spec.Env,
		RunDir:       pt.spec.RunDir,
	})

	// Result identity is stamped centrally here (mirroring the pilot-job
	// engine's workerLoop): TaskID and the trace context always ride on the
	// result so no launch path can drop them.
	var out protocol.Result
	out.TaskID = pt.task.ID
	out.Trace = pt.task.Trace
	out.Started = start
	out.Completed = time.Now()
	if err != nil {
		out.State = protocol.StateFailed
		out.Error = err.Error()
	} else {
		sr := res.ShellResult()
		sr.Cmd = prefix + " " + command
		payload, perr := protocol.EncodePayload(sr)
		if perr != nil {
			out.State = protocol.StateFailed
			out.Error = perr.Error()
		} else {
			out.State = protocol.StateSuccess
			out.Output = payload
		}
	}
	e.Metrics.Counter("apps_completed").Inc()
	e.Metrics.Histogram("app_elapsed").Observe(time.Since(start))

	e.mu.Lock()
	stopped := e.stopped
	if !p.removed {
		for _, n := range nodes {
			p.free[n] = true
		}
	}
	e.mu.Unlock()
	// Stop waits on e.wg before closing the results channel, so this send
	// is safe even during shutdown — running apps always report.
	e.results <- out
	if !stopped {
		e.dispatch()
	}
}

// Stats is a point-in-time snapshot.
type Stats struct {
	Pending       int
	FreeNodes     int
	TotalNodes    int
	Partitions    int
	AppsCompleted int64
}

// Stats reports engine state.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{
		Pending:       len(e.pending),
		AppsCompleted: e.Metrics.Counter("apps_completed").Value(),
	}
	for _, p := range e.partitions {
		s.Partitions++
		s.FreeNodes += len(p.free)
		s.TotalNodes += len(p.all)
	}
	return s
}

// Stop cancels blocks, waits for running applications to report, fails
// queued ones, and closes Results after the last failure. The failures are
// sent from their own goroutine, so Stop returns even when they outnumber
// the channel's buffer and nobody is reading yet.
func (e *Engine) Stop() {
	e.mu.Lock()
	if !e.started || e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	pending := e.pending
	e.pending = nil
	blockIDs := make([]string, 0, len(e.partitions))
	for id := range e.partitions {
		blockIDs = append(blockIDs, id)
	}
	e.mu.Unlock()
	for _, id := range blockIDs {
		_ = e.cfg.Provider.CancelBlock(id)
	}
	e.wg.Wait()
	go func() {
		for _, pt := range pending {
			e.results <- protocol.Result{
				TaskID: pt.task.ID, State: protocol.StateFailed,
				Error: "mpi engine stopped before execution",
			}
		}
		close(e.results)
	}()
}
