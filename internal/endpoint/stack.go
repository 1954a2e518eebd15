package endpoint

import (
	"io"
	"sync"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/engine"
	"globuscompute/internal/mpiengine"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/registry"
	"globuscompute/internal/trace"
)

// DefaultDedupCache is the fetched-payload cache budget an endpoint ships
// with (gc-endpoint's -dedup-cache default, and what user endpoints get).
const DefaultDedupCache = 64 << 20

// ObjectStore is the endpoint's view of the object store: payload references
// resolve through it and oversized result outputs spill to it.
// objectstore.Store and objectstore.Client both implement it.
type ObjectStore interface {
	ObjectFetcher
	ObjectStorer
}

// StackConfig describes one endpoint deployment: the agent plus everything
// under it. cmd/gc-endpoint fills it from flags, the MEP spawner from a
// rendered template, core.Testbed from its options, so all of them run the
// wiring that ships. Where a caller wants something other than what
// gc-endpoint runs, the difference is a value it passes here.
type StackConfig struct {
	EndpointID protocol.UUID

	// Conn is a ready broker connection: it is used as given and left open
	// by Stop. When nil the stack dials BrokerAddr through broker.Connect
	// (BrokerCA as there) and owns that connection.
	Conn                 broker.Conn
	BrokerAddr, BrokerCA string

	// Objects resolves payload references and takes result outputs larger
	// than SpillThreshold bytes, which then cross the broker as references
	// (0 = always inline). Nil: references fail, nothing spills.
	Objects        ObjectStore
	SpillThreshold int
	// DedupCache is the byte budget of the read-through cache in front of
	// Objects, so a fan-out sharing one payload fetches it once (0 = none).
	DedupCache int64

	// Runner configures task execution. OpenStack supplies Objects (the
	// store behind the cache) and defaults Registry to the builtins.
	Runner RunnerConfig
	// WrapRunner, when set, wraps the task runner (fault injection).
	WrapRunner func(engine.TaskRunner) engine.TaskRunner
	// Engine sizes the pilot-job engine: provider, blocks, transport.
	// OpenStack supplies Run.
	Engine engine.Config
	// MPI, when set, attaches a GlobusMPIEngine.
	MPI *mpiengine.Config

	// Heartbeat, HeartbeatInterval, MetricsInterval and Tracer are the
	// agent's (see Config).
	Heartbeat         HeartbeatSink
	HeartbeatInterval time.Duration
	MetricsInterval   time.Duration
	Tracer            *trace.Tracer
}

// Stack is a running endpoint: the agent over its engines, object-store
// access and broker connection.
type Stack struct {
	*Agent

	dialed   *broker.ReconnectingConn // nil when the connection was handed in
	stopOnce sync.Once
}

// OpenStack assembles and starts an endpoint. On error everything already
// started is torn down again.
func OpenStack(cfg StackConfig) (_ *Stack, err error) {
	st := &Stack{}
	conn := cfg.Conn
	if conn == nil {
		if st.dialed, err = broker.Connect(cfg.BrokerAddr, cfg.BrokerCA); err != nil {
			return nil, err
		}
		conn = st.dialed
		defer func() {
			if err != nil {
				st.dialed.Close()
			}
		}()
	}

	agentCfg := Config{
		EndpointID:        cfg.EndpointID,
		Conn:              conn,
		Heartbeat:         cfg.Heartbeat,
		HeartbeatInterval: cfg.HeartbeatInterval,
		MetricsInterval:   cfg.MetricsInterval,
		Tracer:            cfg.Tracer,
	}
	rc := cfg.Runner
	if rc.Registry == nil {
		rc.Registry = registry.Builtins()
	}
	var dedup *objectstore.DedupCache
	if cfg.Objects != nil {
		rc.Objects = cfg.Objects
		if cfg.DedupCache > 0 {
			dedup = objectstore.NewDedupCache(cfg.Objects, cfg.DedupCache)
			rc.Objects = dedup
		}
		agentCfg.Spill, agentCfg.SpillThreshold = cfg.Objects, cfg.SpillThreshold
	}
	ec := cfg.Engine
	ec.Run = newRunner(rc)
	if cfg.WrapRunner != nil {
		ec.Run = cfg.WrapRunner(ec.Run)
	}
	if agentCfg.Engine, err = engine.New(ec); err != nil {
		return nil, err
	}
	if cfg.MPI != nil {
		if agentCfg.MPI, err = mpiengine.New(*cfg.MPI); err != nil {
			return nil, err
		}
	}
	agent, err := New(agentCfg)
	if err != nil {
		return nil, err
	}
	if dedup != nil {
		// Cache hits, misses and evictions report through the agent registry,
		// so they ride /metrics and the heartbeat snapshots.
		dedup.Metrics = agent.Metrics
	}
	if err = agent.Start(); err != nil {
		// Start may have launched the engines before it failed.
		agentCfg.Engine.Stop()
		if agentCfg.MPI != nil {
			agentCfg.MPI.Stop()
		}
		return nil, err
	}
	st.Agent = agent
	return st, nil
}

// WriteMetrics renders the agent's registries (Agent.WriteMetrics) and, when
// the stack dialed its own broker connection, that connection's reconnects,
// resubscribes and publish_retries counters as gc_endpoint_broker_*: the
// body gc-endpoint serves on /metrics.
func (st *Stack) WriteMetrics(w io.Writer) error {
	if err := st.Agent.WriteMetrics(w); err != nil || st.dialed == nil {
		return err
	}
	return st.dialed.Metrics.WriteText(w, "gc_endpoint_broker")
}

// Stop drains the endpoint. The order matters: (1) cancel the task
// subscription and stop intake, so unacked deliveries — those buffered on
// this side included — requeue for another agent; (2) stop the engines once
// in-flight tasks finish — tasks acked but not started fail with a result
// rather than vanish; (3) flush the egress tail, so every
// acked task has its result on the result queue; (4) send the one offline
// heartbeat, so the service marks the endpoint stopped instead of waiting
// for the watchdog; (5) only then close the broker connection, if the stack
// dialed it. Safe to call twice.
func (st *Stack) Stop() {
	st.stopOnce.Do(func() {
		st.Agent.Stop()
		if st.dialed != nil {
			st.dialed.Close()
		}
	})
}
