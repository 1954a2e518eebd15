package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
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
		capacity:   reg.Capacity,
		freeSlots:  reg.Capacity,
		lastActive: time.Now(),
		inflight:   make(map[protocol.UUID]sentTask, reg.Capacity),
	}
	m.slot.L = &e.mu
	e.managers[m.id] = m
	e.blocks[reg.BlockID] = m.id
	e.mu.Unlock()
	_ = w.Write(protocol.MustEnvelope(protocol.EnvOK, m.id, nil))

	// Writer: take pending tasks into the manager's free slots and write
	// them onto the wire. A failed write closes the connection, so the
	// reader below requeues everything in flight.
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		var batch []protocol.Task
		for {
			batch = e.takeRemote(m, batch[:0])
			if len(batch) == 0 {
				return
			}
			for i := range batch {
				env := protocol.Envelope{Type: protocol.EnvTask, ID: string(batch[i].ID), Body: protocol.EncodeTask(&batch[i])}
				if err := w.Write(env); err != nil {
					conn.Close()
					return
				}
			}
			clear(batch)
		}
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
			sent, inflight := m.inflight[res.TaskID]
			delete(m.inflight, res.TaskID)
			m.freeSlots++
			m.lastActive = time.Now()
			e.mu.Unlock()
			m.slot.Signal()
			// The remote pool has no tracer; record its execution span here
			// from the result's timestamps, on behalf of the worker.
			if t := sent.task; inflight && t.Trace.Valid() && !res.Started.IsZero() {
				res.Trace = e.cfg.Tracer.Record(t.Trace, "engine.execute",
					res.Started, res.Completed, "worker", res.WorkerID, "block", m.blockID)
			} else if !res.Trace.Valid() && inflight {
				res.Trace = t.Trace
			}
			e.results <- res
			e.completed.Inc()
		case protocol.EnvHeartbeat:
			e.mu.Lock()
			m.lastActive = time.Now()
			e.mu.Unlock()
		}
	}

	// Connection gone: remove the manager and requeue what was in flight
	// (at-least-once), in reverse dispatch order so the tasks return to the
	// front of the deque in the order they left it.
	conn.Close()
	e.mu.Lock()
	m.removed = true
	orphaned := make([]sentTask, 0, len(m.inflight))
	for _, s := range m.inflight {
		orphaned = append(orphaned, s)
	}
	clear(m.inflight)
	e.mu.Unlock()
	e.idle.Broadcast()
	m.slot.Broadcast()
	slices.SortFunc(orphaned, func(a, b sentTask) int { return cmp.Compare(b.seq, a.seq) })
	for _, s := range orphaned {
		e.requeue(s.task)
	}
	<-writeDone
	e.mu.Lock()
	delete(e.managers, m.id)
	delete(e.blocks, m.blockID)
	e.mu.Unlock()
	e.Metrics.Counter("blocks_released").Inc()
}

// takeRemote parks m's writer until m has a free slot and a task is
// pending, then moves one front task per free slot into m's in-flight set
// and appends it to batch. It appends none once m is removed.
func (e *Engine) takeRemote(m *manager, batch []protocol.Task) []protocol.Task {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !m.removed && (m.freeSlots == 0 || e.pending.Len() == 0) {
		if m.freeSlots == 0 {
			m.slot.Wait()
		} else {
			e.idle.Wait()
		}
	}
	for !m.removed && m.freeSlots > 0 && e.pending.Len() > 0 {
		t := e.popLocked(m)
		m.sent++
		m.inflight[t.ID] = sentTask{seq: m.sent, task: t}
		batch = append(batch, t)
	}
	return batch
}

// runRemoteManager is the pilot-job body for TCP mode: the provisioned
// block dials the interchange and serves tasks until released.
func (e *Engine) runRemoteManager(ctx context.Context, blk provider.BlockInfo) error {
	pool := &remotePool{
		run:      e.cfg.Run,
		capacity: e.blockCapacity(blk),
		blockID:  blk.ID,
		nodes:    blk.Nodes,
	}
	return pool.serve(ctx, e.InterchangeAddr())
}

// remotePool is the block-side half of the TCP transport.
type remotePool struct {
	run      TaskRunner
	capacity int
	blockID  string
	nodes    []string
}

// serve dials addr and processes tasks until the block is released (ctx
// done, which also stops its runners) or the interchange closes the stream.
func (p *remotePool) serve(ctx context.Context, addr string) error {
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
		<-ctx.Done()
		conn.Close()
	}()

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
				res := p.run(ctx, task, info)
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
