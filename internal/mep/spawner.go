package mep

import (
	"context"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/endpoint"
	"globuscompute/internal/engine"
	"globuscompute/internal/mpiengine"
	"globuscompute/internal/provider"
	"globuscompute/internal/registry"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/serialize"
	"globuscompute/internal/shellfn"
)

// SpawnerDeps carries the resources an agent spawner binds user endpoints
// to: the batch cluster, the broker, the object store, and the worker
// callable registry.
type SpawnerDeps struct {
	// Scheduler backs Slurm/PBS provider configs (required for those).
	Scheduler *scheduler.Scheduler
	// Conn connects spawned agents to the broker; they share it and leave
	// it open when they stop.
	Conn broker.Conn
	// Objects resolves payload references and takes spilled results
	// (optional).
	Objects endpoint.ObjectStore
	// Registry seeds the spawned agents' callable registries (default
	// Builtins).
	Registry *registry.Registry
	// SandboxRoot hosts ShellFunction sandboxes.
	SandboxRoot string
	// Heartbeat takes the children's heartbeats (optional).
	Heartbeat endpoint.HeartbeatSink
}

// NewAgentSpawner returns a SpawnFunc that starts real endpoints from
// rendered configurations: provider and engine types, block sizing, and
// walltime come from the admin template; the mapped local user is recorded
// in the task environment (the real MEP forks and drops privileges). A user
// endpoint is otherwise the endpoint gc-endpoint runs (endpoint.OpenStack),
// with its default spill threshold and dedup cache.
func NewAgentSpawner(deps SpawnerDeps) SpawnFunc {
	return func(_ context.Context, req SpawnRequest) (UserEndpoint, error) {
		cfg, err := ParseEndpointConfig(req.RenderedConfig)
		if err != nil {
			return nil, err
		}
		nodesPerBlock := cfg.Engine.NodesPerBlock
		if nodesPerBlock <= 0 {
			nodesPerBlock = 1
		}
		maxBlocks := cfg.Engine.MaxBlocks
		if maxBlocks <= 0 {
			maxBlocks = 2
		}
		var walltime time.Duration
		if cfg.Provider.Walltime != "" {
			walltime, err = ParseWalltime(cfg.Provider.Walltime)
			if err != nil {
				return nil, err
			}
		}

		var prov provider.Provider
		switch cfg.Provider.Type {
		case "SlurmProvider", "PBSProProvider":
			prov, err = provider.NewBatch(provider.BatchConfig{
				Scheduler: deps.Scheduler, Partition: cfg.Provider.Partition,
				NodesPerBlock: nodesPerBlock, Walltime: walltime,
				Account: cfg.Provider.Account, LabelName: cfg.Provider.Type,
			})
			if err != nil {
				return nil, err
			}
		case "KubernetesProvider":
			prov = provider.NewKubernetes(10*time.Millisecond, req.LocalUser)
		default:
			prov = provider.NewLocal(nodesPerBlock)
		}

		st := endpoint.StackConfig{
			EndpointID:     req.ChildEndpointID,
			Conn:           deps.Conn,
			Objects:        deps.Objects,
			SpillThreshold: serialize.DefaultInlineThreshold,
			DedupCache:     endpoint.DefaultDedupCache,
			Runner: endpoint.RunnerConfig{
				Registry: deps.Registry,
				Shell: shellfn.Options{
					SandboxRoot: deps.SandboxRoot,
					Env:         map[string]string{"USER": req.LocalUser, "GC_LOCAL_USER": req.LocalUser},
				},
			},
			Engine: engine.Config{
				Provider:       prov,
				WorkersPerNode: cfg.Engine.WorkersPerNode,
				InitBlocks:     1, MinBlocks: 1, MaxBlocks: maxBlocks,
				ScalingInterval: 20 * time.Millisecond,
			},
			Heartbeat:         deps.Heartbeat,
			HeartbeatInterval: time.Second,
		}
		if cfg.Engine.Type == "GlobusMPIEngine" {
			mpiProv, err := provider.NewBatch(provider.BatchConfig{
				Scheduler: deps.Scheduler, Partition: cfg.Provider.Partition,
				NodesPerBlock: nodesPerBlock, Walltime: walltime,
			})
			if err != nil {
				return nil, err
			}
			st.MPI = &mpiengine.Config{Provider: mpiProv, Launcher: cfg.Engine.MPILauncher}
		}
		ep, err := endpoint.OpenStack(st)
		if err != nil {
			return nil, err // not a typed-nil UserEndpoint
		}
		return ep, nil
	}
}
