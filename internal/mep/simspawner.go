package mep

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
	"globuscompute/internal/webservice"
)

// Simulated user endpoints: a SimAgent consumes its task queue like a real
// agent, holds each task for a configurable service time, and publishes a
// success result — one goroutine per endpoint, so an in-process fleet scales
// to 10k endpoints (and stays inside the race detector's goroutine budget at
// 1k). The fleet harness in internal/experiments uses them to measure
// placement policies against skewed per-endpoint service times; NewSimSpawner
// adapts them to the MEP spawn pipeline so a multi-user endpoint manager can
// run an entire simulated fleet through the real start-command flow.

// SimAgentConfig configures one simulated endpoint agent.
type SimAgentConfig struct {
	EndpointID protocol.UUID
	Conn       broker.Conn
	// ServiceTime is how long the agent holds each task before publishing
	// its result — the skew knob (0 = instant echo).
	ServiceTime time.Duration
	// Prefetch bounds in-flight deliveries (default one delivery frame,
	// broker.MaxDeliveryBatch). Keep it above the expected queue depth:
	// placement reads queued intake from heartbeats, and tasks parked in the
	// broker because prefetch is exhausted are load the report would miss.
	Prefetch int
}

// SimAgent is a lightweight simulated endpoint. It implements the mep
// UserEndpoint interface.
type SimAgent struct {
	cfg SimAgentConfig
	sub broker.Subscription

	queued    atomic.Int64 // received, result not yet published
	received  atomic.Int64
	published atomic.Int64
	lastAct   atomic.Int64 // unix nanos

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// StartSimAgent subscribes to the endpoint's task queue and starts the
// single service goroutine.
func StartSimAgent(cfg SimAgentConfig) (*SimAgent, error) {
	if cfg.Prefetch <= 0 {
		cfg.Prefetch = broker.MaxDeliveryBatch
	}
	// Declare idempotently: the webservice declares these on registration,
	// but a harness-spawned agent may come up first.
	for _, q := range []string{webservice.TaskQueue(cfg.EndpointID), webservice.ResultQueue(cfg.EndpointID)} {
		if err := cfg.Conn.Declare(q); err != nil {
			return nil, err
		}
	}
	sub, err := cfg.Conn.Subscribe(webservice.TaskQueue(cfg.EndpointID), cfg.Prefetch)
	if err != nil {
		return nil, err
	}
	a := &SimAgent{cfg: cfg, sub: sub, stopped: make(chan struct{})}
	a.lastAct.Store(time.Now().UnixNano())
	a.wg.Add(1)
	go a.loop()
	return a, nil
}

// loop serves deliveries one at a time: a SimAgent models a one-worker
// endpoint whose capacity is 1/ServiceTime tasks per second. Deliveries are
// drained into a local FIFO as they arrive — while one task is in service —
// so the queued counter (and the heartbeat load report built from it) sees
// the real backlog depth, not just the task on the worker. Placement scores
// backlog; an agent that left queued work invisible in the subscription's
// channel buffer would make a drowning slow endpoint indistinguishable from
// a briefly-busy fast one.
func (a *SimAgent) loop() {
	defer a.wg.Done()
	resultQueue := webservice.ResultQueue(a.cfg.EndpointID)
	type job struct {
		id      protocol.UUID
		tag     uint64
		started time.Time
	}
	var backlog []job
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	serving, closed := false, false
	startNext := func() {
		backlog[0].started = time.Now()
		serving = true
		timer.Reset(a.cfg.ServiceTime)
	}
	for {
		var msgs <-chan broker.Message
		if !closed {
			msgs = a.sub.Messages()
		}
		select {
		case <-a.stopped:
			return
		case m, ok := <-msgs:
			if !ok {
				closed = true
				if !serving {
					return
				}
				continue
			}
			task, err := protocol.DecodeTask(m.Body)
			if err != nil {
				_ = a.sub.Ack(m.Tag)
				continue
			}
			a.queued.Add(1)
			a.received.Add(1)
			a.lastAct.Store(time.Now().UnixNano())
			backlog = append(backlog, job{id: task.ID, tag: m.Tag})
			if !serving {
				startNext()
			}
		case <-timer.C:
			done := backlog[0]
			res := protocol.Result{
				TaskID: done.id, State: protocol.StateSuccess,
				Output: []byte("1"), EndpointID: a.cfg.EndpointID,
				Started: done.started, Completed: time.Now(),
			}
			// Count the result before it is visible: a consumer that sees it
			// then reads Load finds the agent idle.
			backlog = backlog[1:]
			a.queued.Add(-1)
			a.published.Add(1)
			a.lastAct.Store(time.Now().UnixNano())
			_ = a.cfg.Conn.PublishBatch(resultQueue, [][]byte{protocol.EncodeResult(&res)}, nil)
			_ = a.sub.Ack(done.tag)
			serving = false
			if len(backlog) > 0 {
				startNext()
			} else if closed {
				return
			}
		}
	}
}

// Load reports the agent's utilization the way a real agent's heartbeat
// does. One simulated worker: free when nothing is queued.
func (a *SimAgent) Load() statestore.EndpointLoad {
	queued := int(a.queued.Load())
	free := 0
	if queued == 0 {
		free = 1
	}
	backlog := 0 // results publish inline; egress never backs up
	return statestore.EndpointLoad{
		PendingTasks: queued, TotalWorkers: 1, FreeWorkers: free,
		TasksReceived:    a.received.Load(),
		ResultsPublished: a.published.Load(),
		EgressBacklog:    &backlog,
	}
}

// Stop cancels the subscription and waits for the service goroutine.
func (a *SimAgent) Stop() {
	a.stopOnce.Do(func() {
		close(a.stopped)
		_ = a.sub.Cancel()
	})
	a.wg.Wait()
}

// LastActivity supports MEP idle reaping.
func (a *SimAgent) LastActivity() time.Time { return time.Unix(0, a.lastAct.Load()) }

// Busy reports queued work.
func (a *SimAgent) Busy() bool { return a.queued.Load() > 0 }

// SimSpawnerDeps configures a simulated-agent spawner.
type SimSpawnerDeps struct {
	// Conn connects spawned sim agents to the broker.
	Conn broker.Conn
	// ServiceTime picks each spawn's per-task service time; nil reads a
	// "service_time_ms" number from the user config (default 1ms).
	ServiceTime func(req SpawnRequest) time.Duration
	// OnSpawn observes each started agent (fleet harnesses use it to wire
	// heartbeat reporting).
	OnSpawn func(id protocol.UUID, a *SimAgent)
}

// NewSimSpawner returns a SpawnFunc producing SimAgents, so a MEP manager
// (or a fleet harness) runs simulated endpoints through the same spawn
// pipeline that builds real agents.
func NewSimSpawner(deps SimSpawnerDeps) SpawnFunc {
	return func(_ context.Context, req SpawnRequest) (UserEndpoint, error) {
		svc := time.Millisecond
		if deps.ServiceTime != nil {
			svc = deps.ServiceTime(req)
		} else if ms, ok := req.UserConfig["service_time_ms"].(float64); ok && ms >= 0 {
			svc = time.Duration(ms * float64(time.Millisecond))
		}
		a, err := StartSimAgent(SimAgentConfig{
			EndpointID: req.ChildEndpointID, Conn: deps.Conn, ServiceTime: svc,
		})
		if err != nil {
			return nil, err
		}
		if deps.OnSpawn != nil {
			deps.OnSpawn(req.ChildEndpointID, a)
		}
		return a, nil
	}
}
