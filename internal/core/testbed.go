// Package core runs the full Globus Compute stack in one process: the
// cloud side gc-webservice ships (webservice.Stack: auth, state store,
// broker, object store, web service with REST front end) plus a simulated
// batch cluster and endpoint agents. It is the deployment harness used by
// the examples, the integration tests, and the benchmark harness that
// regenerates the paper's figures.
package core

import (
	"context"
	"fmt"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/container"
	"globuscompute/internal/endpoint"
	"globuscompute/internal/engine"
	"globuscompute/internal/mep"
	"globuscompute/internal/metrics"
	"globuscompute/internal/mpiengine"
	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/proxystore"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/shellfn"
	"globuscompute/internal/statestore"
	"globuscompute/internal/trace"
	"globuscompute/internal/webservice"
)

// Options configures a testbed. The broker is served over TCP and the
// object store and web service over HTTP even for in-process use, matching
// the real deployment.
type Options struct {
	// ClusterNodes sizes the simulated batch cluster (default 8).
	ClusterNodes int
	// FleetConfig tunes the fleet metrics store (ring sizes, staleness
	// window); the zero value takes the obs defaults.
	FleetConfig obs.FleetConfig
	// SLORules overrides the service's SLO rule set (nil = obs.DefaultRules).
	// Chaos tests shrink the burn-rate windows to milliseconds here.
	SLORules []obs.Rule
	// Admission enables front-door per-tenant overload protection
	// (nil = admission off, the default).
	Admission *scheduler.Admission
	// QueueLimit bounds each endpoint's broker task queue (0 = unbounded).
	QueueLimit int
}

// Testbed is a running deployment: the cloud-side stack gc-webservice runs
// (Auth, Store, Broker, Objects, Service, Traces and the
// HTTP/BrokerSrv/ObjectsSrv listeners) plus the endpoint side.
type Testbed struct {
	*webservice.Stack
	Sched *scheduler.Scheduler

	agents []*endpoint.Stack
	meps   []*mep.Manager
	closed bool
}

// NewTestbed boots a deployment.
func NewTestbed(opts Options) (*Testbed, error) {
	if opts.ClusterNodes <= 0 {
		opts.ClusterNodes = 8
	}
	stack, err := webservice.OpenStack(webservice.StackConfig{
		Service: webservice.Config{
			Fleet:      obs.NewFleetStore(opts.FleetConfig),
			SLORules:   opts.SLORules,
			Admission:  opts.Admission,
			QueueLimit: opts.QueueLimit,
		},
		HTTPAddr: "127.0.0.1:0", BrokerAddr: "127.0.0.1:0", ObjectsAddr: "127.0.0.1:0",
	})
	if err != nil {
		return nil, err
	}
	return &Testbed{Stack: stack, Sched: scheduler.SimpleCluster(opts.ClusterNodes)}, nil
}

// IssueToken mints a bearer token for a user identity with compute+manage
// scopes.
func (tb *Testbed) IssueToken(username, provider string) (auth.Token, error) {
	return tb.Auth.Issue(
		auth.Identity{Username: username, Provider: provider},
		[]string{auth.ScopeCompute, auth.ScopeManage},
		time.Hour, time.Time{},
	)
}

// EndpointOptions configures a testbed endpoint.
type EndpointOptions struct {
	Name  string
	Owner string
	// Workers sizes the local worker pool (default 4).
	Workers int
	// MaxBlocks caps engine elasticity (default 4; 1 pins capacity).
	MaxBlocks int
	// Transport selects the engine's interchange transport: "channel"
	// (default) or "tcp".
	Transport string
	// Containers attaches a container runtime so ShellFunctions may run
	// inside images (nil = containers unsupported).
	Containers *container.Runtime
	// ProxyStore enables worker-side ProxyStore integration: proxied
	// python arguments resolve transparently, and results above
	// ProxyPolicy.MinSize are proxied back.
	ProxyStore  *proxystore.Store
	ProxyPolicy proxystore.Policy
	// UseBatch provisions workers through the batch scheduler simulator
	// instead of local goroutines.
	UseBatch bool
	// NodesPerBlock applies with UseBatch (default 1).
	NodesPerBlock int
	// WithMPI attaches a GlobusMPIEngine sharing the batch cluster.
	WithMPI bool
	// MPIBlockNodes sizes the MPI engine's block (default 2).
	MPIBlockNodes int
	// SandboxRoot hosts ShellFunction sandboxes (default system temp).
	SandboxRoot string
	// AllowedFunctions restricts executable functions.
	AllowedFunctions []protocol.UUID
	// WrapRunner, when set, wraps the engine's task runner (fault injection:
	// worker kills, execution delays).
	WrapRunner func(engine.TaskRunner) engine.TaskRunner
	// WrapConn, when set, wraps the agent's broker connection (fault
	// injection: publish failures, connection drops; or a reconnecting
	// wrapper).
	WrapConn func(broker.Conn) broker.Conn
	// MaxAttempts overrides the engine's per-task attempt budget
	// (default: engine's own default).
	MaxAttempts int
	// HeartbeatInterval overrides the agent heartbeat period (default 1s).
	HeartbeatInterval time.Duration
	// MetricsInterval overrides the agent's snapshot decimation period
	// (default 2x the heartbeat interval).
	MetricsInterval time.Duration
	// SuppressOfflineHeartbeat drops the agent's final offline heartbeat,
	// simulating a crash rather than a clean shutdown — the staleness SLO
	// should fire for such an endpoint instead of marking it stopped.
	SuppressOfflineHeartbeat bool
}

// StartEndpoint registers and starts a single-user endpoint agent wired to
// the testbed broker, and marks it online. It returns the endpoint ID.
func (tb *Testbed) StartEndpoint(opts EndpointOptions) (protocol.UUID, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	epID, err := tb.Service.RegisterEndpoint(webservice.RegisterEndpointRequest{
		Name: opts.Name, Owner: opts.Owner,
		AllowedFunctions: opts.AllowedFunctions,
	})
	if err != nil {
		return "", err
	}
	agent, err := tb.buildAgent(epID, opts)
	if err != nil {
		return "", err
	}
	tb.agents = append(tb.agents, agent)
	return epID, nil
}

// StartRestartableEndpoint is StartEndpoint but also returns the agent so
// tests can stop and restart it (simulating endpoint churn).
func (tb *Testbed) StartRestartableEndpoint(opts EndpointOptions) (protocol.UUID, *endpoint.Stack, error) {
	epID, err := tb.StartEndpoint(opts)
	if err != nil {
		return "", nil, err
	}
	return epID, tb.agents[len(tb.agents)-1], nil
}

// RestartEndpointAgent builds and starts a fresh agent for an existing
// endpoint ID (after the previous agent was stopped).
func (tb *Testbed) RestartEndpointAgent(epID protocol.UUID, opts EndpointOptions) (*endpoint.Stack, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	agent, err := tb.buildAgent(epID, opts)
	if err != nil {
		return nil, err
	}
	tb.agents = append(tb.agents, agent)
	return agent, nil
}

// buildAgent starts an endpoint for an already registered endpoint ID. It is
// the endpoint gc-endpoint runs (endpoint.OpenStack) over the in-process
// broker and object store; what differs from the binary is written here.
func (tb *Testbed) buildAgent(epID protocol.UUID, opts EndpointOptions) (*endpoint.Stack, error) {
	var prov provider.Provider
	if opts.UseBatch {
		npb := opts.NodesPerBlock
		if npb <= 0 {
			npb = 1
		}
		p, err := provider.NewBatch(provider.BatchConfig{Scheduler: tb.Sched, Partition: "default", NodesPerBlock: npb})
		if err != nil {
			return nil, err
		}
		prov = p
	} else {
		prov = provider.NewLocal(opts.Workers)
	}
	maxBlocks := opts.MaxBlocks
	if maxBlocks <= 0 {
		maxBlocks = 4
	}
	hbInterval := opts.HeartbeatInterval
	if hbInterval <= 0 {
		hbInterval = time.Second
	}
	conn := broker.LocalConn(tb.Broker)
	if opts.WrapConn != nil {
		conn = opts.WrapConn(conn)
	}
	sink := endpoint.HeartbeatSink(tb.Service.RecordHeartbeat)
	if opts.SuppressOfflineHeartbeat {
		// Simulate a crash: the service never hears the offline report.
		sink = func(id protocol.UUID, online bool, load *statestore.EndpointLoad, snap *metrics.Snapshot) error {
			if !online {
				return nil
			}
			return tb.Service.RecordHeartbeat(id, online, load, snap)
		}
	}
	cfg := endpoint.StackConfig{
		EndpointID: epID,
		Conn:       conn,
		// No result spill, no fetch cache (gc-endpoint: 64 KiB, 64 MiB): the
		// object store is in this process, so neither saves a wire crossing.
		Objects: tb.Objects, SpillThreshold: 0, DedupCache: 0,
		Runner: endpoint.RunnerConfig{
			Shell: shellfn.Options{
				SandboxRoot: opts.SandboxRoot,
				Containers:  opts.Containers,
			},
		},
		WrapRunner: opts.WrapRunner,
		// Elastic and quick to scale (gc-endpoint pins one block and polls
		// every 50 ms): scaling tests finish in milliseconds.
		Engine: engine.Config{
			Provider:       prov,
			WorkersPerNode: workersPerNode(opts),
			InitBlocks:     1, MinBlocks: 1, MaxBlocks: maxBlocks,
			MaxAttempts:     opts.MaxAttempts,
			ScalingInterval: 20 * time.Millisecond,
			Transport:       opts.Transport,
			Tracer:          trace.NewTracer("engine", tb.Traces),
		},
		Heartbeat:         sink,
		HeartbeatInterval: hbInterval, // 1s by default; gc-endpoint's is 5s
		MetricsInterval:   opts.MetricsInterval,
		Tracer:            trace.NewTracer("endpoint", tb.Traces),
	}
	if opts.ProxyStore != nil {
		cfg.Runner.Proxies = proxystore.NewRegistry()
		cfg.Runner.Proxies.Register(opts.ProxyStore)
		cfg.Runner.ProxyStore = opts.ProxyStore
		cfg.Runner.ProxyPolicy = opts.ProxyPolicy
	}
	if opts.WithMPI {
		blockNodes := opts.MPIBlockNodes
		if blockNodes <= 0 {
			blockNodes = 2
		}
		mpiProv, err := provider.NewBatch(provider.BatchConfig{
			Scheduler: tb.Sched, Partition: "default", NodesPerBlock: blockNodes,
		})
		if err != nil {
			return nil, err
		}
		cfg.MPI = &mpiengine.Config{Provider: mpiProv}
	}
	return endpoint.OpenStack(cfg)
}

func workersPerNode(opts EndpointOptions) int {
	if opts.UseBatch {
		return opts.Workers
	}
	// The local provider exposes opts.Workers synthetic nodes; one worker
	// per node keeps the total at opts.Workers.
	return 1
}

// ServiceAddr returns the REST API address.
func (tb *Testbed) ServiceAddr() string { return tb.HTTP.Addr() }

// Close shuts everything down in dependency order.
func (tb *Testbed) Close() {
	if tb.closed {
		return
	}
	tb.closed = true
	for _, m := range tb.meps {
		m.Stop()
	}
	for _, a := range tb.agents {
		a.Stop()
	}
	// Tests tear down at once rather than wait for straggling requests.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = tb.Stack.Close(expired)
	tb.Sched.Close()
}

// String summarizes the deployment.
func (tb *Testbed) String() string {
	return fmt.Sprintf("testbed(http=%s broker=%s objects=%s, endpoints=%d)",
		tb.HTTP.Addr(), tb.BrokerSrv.Addr(), tb.ObjectsSrv.Addr(), len(tb.agents))
}
