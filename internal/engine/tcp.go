package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
)

// TCP transport: in "tcp" mode the interchange listens on a socket and each
// provisioned block dials in, registers its capacity, and exchanges
// length-prefixed task/result envelopes, whose bodies are protocol's binary
// task and result bodies — the ZeroMQ-interchange topology of
// the real engine, with communication to workers multiplexed through one
// connection per manager.

// registerBody announces a manager to the interchange.
type registerBody struct {
	BlockID  string   `json:"block_id"`
	Capacity int      `json:"capacity"`
	Nodes    []string `json:"nodes"`
}

// startInterchange opens the listener and serves manager connections.
func (e *Engine) startInterchange() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("engine: interchange listen: %w", err)
	}
	e.ln = ln
	e.loops.Add(1)
	go func() {
		defer e.loops.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			e.loops.Add(1)
			go func() {
				defer e.loops.Done()
				e.serveManagerConn(conn)
			}()
		}
	}()
	return nil
}

// InterchangeAddr returns the TCP interchange address ("" in channel mode
// or before Start).
func (e *Engine) InterchangeAddr() string {
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// serveManagerConn handles one manager connection on the interchange side:
// registration, task writing, result reading, and cleanup with requeue.
func (e *Engine) serveManagerConn(conn net.Conn) {
	defer conn.Close()
	r := protocol.NewFrameReader(conn)
	w := protocol.NewFrameWriter(conn)

	env, err := r.Read()
	if err != nil || env.Type != protocol.EnvRegister {
		return
	}
	var reg registerBody
	if err := env.Decode(&reg); err != nil {
		return
	}

	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.nextMgr++
	m := &manager{
		id:         fmt.Sprintf("mgr-%d", e.nextMgr),
		blockID:    reg.BlockID,
		nodes:      reg.Nodes,
		capacity:   reg.Capacity,
		tasks:      make(chan protocol.Task, reg.Capacity),
		freeSlots:  reg.Capacity,
		lastActive: time.Now(),
		inflight:   make(map[protocol.UUID]protocol.Task, reg.Capacity),
	}
	e.managers[m.id] = m
	e.blocks[reg.BlockID] = m.id
	e.mu.Unlock()
	e.wakeUp()
	_ = w.Write(protocol.MustEnvelope(protocol.EnvOK, m.id, nil))

	// Writer: forward dispatched tasks onto the wire.
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		for t := range m.tasks {
			env := protocol.Envelope{Type: protocol.EnvTask, ID: string(t.ID), Body: protocol.EncodeTask(&t)}
			e.mu.Lock()
			m.inflight[t.ID] = t
			e.mu.Unlock()
			if err := w.Write(env); err != nil {
				e.mu.Lock()
				delete(m.inflight, t.ID)
				e.mu.Unlock()
				e.requeue(t)
				return
			}
		}
		// Orderly close: tell the manager to finish and exit.
		_ = w.Write(protocol.MustEnvelope(protocol.EnvShutdown, "", nil))
	}()

	// Reader: results and heartbeats until the connection drops.
	for {
		env, err := r.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				obs.Component("engine").Warn("interchange read", "block_id", m.id, "error", err)
			}
			break
		}
		switch env.Type {
		case protocol.EnvResult:
			res, err := protocol.DecodeResult(env.Body)
			if err != nil {
				continue
			}
			e.mu.Lock()
			t, inflight := m.inflight[res.TaskID]
			delete(m.inflight, res.TaskID)
			m.freeSlots++
			m.lastActive = time.Now()
			e.mu.Unlock()
			// The remote pool has no tracer; record its execution span here
			// from the result's timestamps, on behalf of the worker.
			if inflight && t.Trace.Valid() && !res.Started.IsZero() {
				res.Trace = e.cfg.Tracer.Record(t.Trace, "engine.execute",
					res.Started, res.Completed, "worker", res.WorkerID, "block", m.blockID)
			} else if res.Trace == nil && inflight {
				res.Trace = t.Trace
			}
			e.results <- res
			e.Metrics.Counter("completed").Inc()
			e.wakeUp()
		case protocol.EnvHeartbeat:
			e.mu.Lock()
			m.lastActive = time.Now()
			e.mu.Unlock()
		}
	}

	// Connection gone: remove the manager and requeue anything undrained
	// or in flight (at-least-once; a task whose result write failed after
	// execution runs again).
	e.mu.Lock()
	alreadyRemoved := m.removed
	var orphaned []protocol.Task
	if !m.removed {
		m.removed = true
		close(m.tasks)
		for _, t := range m.inflight {
			orphaned = append(orphaned, t)
		}
		m.inflight = make(map[protocol.UUID]protocol.Task)
	}
	e.mu.Unlock()
	if !alreadyRemoved {
		for t := range m.tasks {
			e.requeue(t)
		}
		for _, t := range orphaned {
			e.requeue(t)
		}
	}
	<-writeDone
	e.mu.Lock()
	delete(e.managers, m.id)
	delete(e.blocks, m.blockID)
	e.mu.Unlock()
	e.Metrics.Counter("blocks_released").Inc()
	e.wakeUp()
}

// runRemoteManager is the pilot-job body for TCP mode: the provisioned
// block dials the interchange and serves tasks until released.
func (e *Engine) runRemoteManager(ctx context.Context, blk provider.BlockInfo) error {
	capacity := len(blk.Nodes) * e.cfg.WorkersPerNode
	if capacity == 0 {
		capacity = e.cfg.WorkersPerNode
	}
	pool := &remotePool{
		run:      e.cfg.Run,
		capacity: capacity,
		blockID:  blk.ID,
		nodes:    blk.Nodes,
	}
	return pool.serve(ctx.Done(), e.InterchangeAddr())
}

// taskContext derives a context cancelled when done closes (the block was
// released), handed to task runners so in-flight work stops promptly.
func taskContext(done <-chan struct{}) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		select {
		case <-done:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// remotePool is the block-side half of the TCP transport.
type remotePool struct {
	run      TaskRunner
	capacity int
	blockID  string
	nodes    []string
}

// serve dials addr and processes tasks until the context ends or the
// interchange shuts the stream down.
func (p *remotePool) serve(done <-chan struct{}, addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("engine: manager dial: %w", err)
	}
	defer conn.Close()
	w := protocol.NewFrameWriter(conn)
	r := protocol.NewFrameReader(conn)
	reg := registerBody{BlockID: p.blockID, Capacity: p.capacity, Nodes: p.nodes}
	if err := w.Write(protocol.MustEnvelope(protocol.EnvRegister, "", reg)); err != nil {
		return err
	}
	ack, err := r.Read()
	if err != nil || ack.Type != protocol.EnvOK {
		return fmt.Errorf("engine: manager registration rejected: %v", err)
	}
	mgrID := ack.ID

	// Close the connection when the block is released so both loops end.
	go func() {
		<-done
		conn.Close()
	}()

	taskCtx, cancel := taskContext(done)
	defer cancel()

	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, p.capacity)
	workerSeq := 0
	for {
		env, err := r.Read()
		if err != nil {
			return nil // connection closed (shutdown or interchange gone)
		}
		switch env.Type {
		case protocol.EnvShutdown:
			return nil
		case protocol.EnvTask:
			task, err := protocol.DecodeTask(env.Body)
			if err != nil {
				continue
			}
			sem <- struct{}{}
			workerSeq++
			node := ""
			if len(p.nodes) > 0 {
				node = p.nodes[workerSeq%len(p.nodes)]
			}
			info := WorkerInfo{
				ID:      fmt.Sprintf("%s-w%d", mgrID, workerSeq),
				Node:    node,
				BlockID: p.blockID,
			}
			wg.Add(1)
			go func(task protocol.Task, info WorkerInfo) {
				defer wg.Done()
				defer func() { <-sem }()
				started := time.Now()
				res := p.run(taskCtx, task, info)
				res.TaskID = task.ID
				res.WorkerID = info.ID
				if !task.Submitted.IsZero() {
					res.QueueDelay = started.Sub(task.Submitted)
				}
				if res.Started.IsZero() {
					res.Started = started
				}
				if res.Completed.IsZero() {
					res.Completed = time.Now()
				}
				res.ExecutionMS = float64(res.Completed.Sub(res.Started)) / float64(time.Millisecond)
				_ = w.Write(protocol.Envelope{Type: protocol.EnvResult, ID: string(task.ID), Body: protocol.EncodeResult(&res)})
			}(task, info)
		}
	}
}
