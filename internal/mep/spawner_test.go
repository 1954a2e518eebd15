package mep

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/metrics"
	"globuscompute/internal/protocol"
	"globuscompute/internal/registry"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/statestore"
	"globuscompute/internal/webservice"
)

// spawnerHarness builds a spawner against a private broker + cluster.
func spawnerHarness(t *testing.T) (SpawnFunc, *broker.Broker, *scheduler.Scheduler) {
	t.Helper()
	brk := broker.New()
	sched := scheduler.SimpleCluster(4)
	t.Cleanup(func() {
		sched.Close()
		brk.Close()
	})
	spawn := NewAgentSpawner(SpawnerDeps{
		Scheduler:   sched,
		Conn:        broker.LocalConn(brk),
		Registry:    registry.Builtins(),
		SandboxRoot: t.TempDir(),
	})
	return spawn, brk, sched
}

func spawnWith(t *testing.T, spawn SpawnFunc, brk *broker.Broker, rendered string) (UserEndpoint, protocol.UUID) {
	t.Helper()
	child := protocol.NewUUID()
	brk.Declare("tasks." + string(child))
	brk.Declare("results." + string(child))
	ep, err := spawn(context.Background(), SpawnRequest{
		ChildEndpointID: child,
		LocalUser:       "localuser",
		Identity:        auth.Identity{Username: "u@x.edu"},
		RenderedConfig:  rendered,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Stop)
	return ep, child
}

// runTask routes one task through a spawned endpoint and returns the result.
func runTask(t *testing.T, brk *broker.Broker, child protocol.UUID, task protocol.Task) protocol.Result {
	t.Helper()
	task.EndpointID = child
	body, _ := json.Marshal(task)
	results, err := brk.Consume("results."+string(child), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer results.Close()
	if err := brk.Publish("tasks."+string(child), body); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-results.Messages():
		var res protocol.Result
		json.Unmarshal(m.Body, &res)
		results.Ack(m.Tag)
		return res
	case <-time.After(20 * time.Second):
		t.Fatal("no result from spawned endpoint")
		return protocol.Result{}
	}
}

func TestSpawnerSlurmConfig(t *testing.T) {
	spawn, brk, _ := spawnerHarness(t)
	_, child := spawnWith(t, spawn, brk, `{
	  "engine": {"type": "GlobusComputeEngine", "nodes_per_block": 2, "workers_per_node": 2},
	  "provider": {"type": "SlurmProvider", "partition": "default", "walltime": "00:10:00"}
	}`)
	payload, _ := protocol.EncodePayload(protocol.ShellSpec{Command: "echo $GC_LOCAL_USER"})
	res := runTask(t, brk, child, protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindShell, Payload: payload})
	if res.State != protocol.StateSuccess {
		t.Fatalf("result = %+v", res)
	}
	var sr protocol.ShellResult
	protocol.DecodePayload(res.Output, &sr)
	if sr.Stdout != "localuser" {
		t.Errorf("stdout = %q (privilege-drop env missing)", sr.Stdout)
	}
}

func TestSpawnerLocalProvider(t *testing.T) {
	spawn, brk, _ := spawnerHarness(t)
	_, child := spawnWith(t, spawn, brk, `{
	  "engine": {"type": "GlobusComputeEngine"},
	  "provider": {"type": "LocalProvider"}
	}`)
	payload, _ := protocol.EncodePayload(protocol.PythonSpec{Entrypoint: "identity", Args: []json.RawMessage{json.RawMessage(`7`)}})
	res := runTask(t, brk, child, protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindPython, Payload: payload})
	if res.State != protocol.StateSuccess || string(res.Output) != "7" {
		t.Errorf("result = %+v", res)
	}
}

func TestSpawnerKubernetesProvider(t *testing.T) {
	spawn, brk, _ := spawnerHarness(t)
	_, child := spawnWith(t, spawn, brk, `{
	  "engine": {"type": "GlobusComputeEngine"},
	  "provider": {"type": "KubernetesProvider"}
	}`)
	payload, _ := protocol.EncodePayload(protocol.PythonSpec{Entrypoint: "identity", Args: []json.RawMessage{json.RawMessage(`"pod"`)}})
	res := runTask(t, brk, child, protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindPython, Payload: payload})
	if res.State != protocol.StateSuccess {
		t.Errorf("result = %+v", res)
	}
}

func TestSpawnerMPIEngineConfig(t *testing.T) {
	spawn, brk, _ := spawnerHarness(t)
	_, child := spawnWith(t, spawn, brk, `{
	  "engine": {"type": "GlobusMPIEngine", "nodes_per_block": 2, "mpi_launcher": "srun"},
	  "provider": {"type": "SlurmProvider", "partition": "default"}
	}`)
	payload, _ := protocol.EncodePayload(protocol.ShellSpec{Command: "echo $GC_NODE"})
	res := runTask(t, brk, child, protocol.Task{
		ID: protocol.NewUUID(), Kind: protocol.KindMPI, Payload: payload,
		Resources: protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 1},
	})
	if res.State != protocol.StateSuccess {
		t.Fatalf("result = %+v", res)
	}
	var sr protocol.ShellResult
	protocol.DecodePayload(res.Output, &sr)
	if len(sr.Stdout) == 0 {
		t.Error("empty MPI output")
	}
}

func TestSpawnerRejectsBadConfig(t *testing.T) {
	spawn, _, _ := spawnerHarness(t)
	cases := []string{
		`{not json`,
		`{"engine": {"type": "GlobusComputeEngine"}, "provider": {"type": "SlurmProvider", "walltime": "bad"}}`,
	}
	for _, rendered := range cases {
		_, err := spawn(context.Background(), SpawnRequest{
			ChildEndpointID: protocol.NewUUID(),
			LocalUser:       "u",
			RenderedConfig:  rendered,
		})
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("spawn(%.30q) = %v, want ErrBadConfig", rendered, err)
		}
	}
}

func TestSpawnerHeartbeatCallback(t *testing.T) {
	brk := broker.New()
	sched := scheduler.SimpleCluster(1)
	t.Cleanup(func() { sched.Close(); brk.Close() })
	beats := make(chan bool, 8)
	spawn := NewAgentSpawner(SpawnerDeps{
		Scheduler: sched,
		Conn:      broker.LocalConn(brk),
		Heartbeat: func(_ protocol.UUID, online bool, _ *statestore.EndpointLoad, _ *metrics.Snapshot) error {
			beats <- online
			return nil
		},
	})
	child := protocol.NewUUID()
	brk.Declare(string(webservice.TaskQueue(child)))
	brk.Declare(string(webservice.ResultQueue(child)))
	ep, err := spawn(context.Background(), SpawnRequest{
		ChildEndpointID: child, LocalUser: "u",
		RenderedConfig: `{"engine": {"type": "GlobusComputeEngine"}, "provider": {"type": "LocalProvider"}}`,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case up := <-beats:
		if !up {
			t.Error("first heartbeat was offline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no heartbeat")
	}
	ep.Stop()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case up := <-beats:
			if !up {
				return // offline heartbeat observed
			}
		case <-deadline:
			t.Fatal("no offline heartbeat after stop")
		}
	}
}
