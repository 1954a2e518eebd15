package mep

import (
	"encoding/json"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/protocol"
	"globuscompute/internal/webservice"
)

func TestSimAgentServesTasksAndReportsLoad(t *testing.T) {
	brk := broker.New()
	defer brk.Close()
	ep := protocol.NewUUID()
	for _, q := range []string{webservice.TaskQueue(ep), webservice.ResultQueue(ep)} {
		if err := brk.Declare(q); err != nil {
			t.Fatal(err)
		}
	}
	a, err := StartSimAgent(SimAgentConfig{
		EndpointID: ep, Conn: broker.LocalConn(brk), ServiceTime: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()

	results, err := brk.Consume(webservice.ResultQueue(ep), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer results.Close()

	const n = 4
	for i := 0; i < n; i++ {
		task := protocol.Task{ID: protocol.NewUUID(), EndpointID: ep}
		body, _ := json.Marshal(task)
		if err := brk.Publish(webservice.TaskQueue(ep), body); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		select {
		case m := <-results.Messages():
			var res protocol.Result
			if err := json.Unmarshal(m.Body, &res); err != nil {
				t.Fatal(err)
			}
			if res.State != protocol.StateSuccess || res.EndpointID != ep {
				t.Fatalf("result = %+v", res)
			}
			results.Ack(m.Tag)
		case <-time.After(5 * time.Second):
			t.Fatalf("result %d never arrived", i)
		}
	}
	// Serial service: n tasks through one simulated worker take >= n * 5ms.
	if elapsed := time.Since(start); elapsed < (n-1)*5*time.Millisecond {
		t.Fatalf("n tasks served in %v — service time not modeled serially", elapsed)
	}
	load := a.Load()
	if load.TasksReceived != n || load.ResultsPublished != n || load.TotalWorkers != 1 {
		t.Fatalf("load = %+v", load)
	}
	if load.EgressBacklog == nil || *load.EgressBacklog != 0 {
		t.Fatalf("egress backlog = %v", load.EgressBacklog)
	}
	if load.PendingTasks != 0 || load.FreeWorkers != 1 {
		t.Fatalf("idle agent load = %+v", load)
	}
}

func TestSimSpawnerThroughMEPPipeline(t *testing.T) {
	spawned := make(chan *SimAgent, 1)
	h := newMEPHarness(t, func(c *Config) {
		c.Spawn = NewSimSpawner(SimSpawnerDeps{
			Conn:        c.Conn,
			ServiceTime: func(SpawnRequest) time.Duration { return time.Millisecond },
			OnSpawn: func(_ protocol.UUID, a *SimAgent) {
				spawned <- a
			},
		})
	})
	child := h.sendStart(t, "alice@uchicago.edu", `{"NODES": 2, "ACCOUNT": "alloc1"}`)

	select {
	case <-spawned:
	case <-time.After(5 * time.Second):
		t.Fatal("sim agent never spawned")
	}
	// OnSpawn fires inside the spawn call, before the manager counts the child.
	waitFor(t, func() bool { return h.mgr.Stats().ActiveChildren == 1 }, "manager never counted the child")

	// The spawned sim agent serves the child's task queue end to end.
	if err := h.brk.Declare(webservice.ResultQueue(child)); err != nil {
		t.Fatal(err)
	}
	results, err := h.brk.Consume(webservice.ResultQueue(child), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer results.Close()
	task := protocol.Task{ID: protocol.NewUUID(), EndpointID: child}
	body, _ := json.Marshal(task)
	if err := h.brk.Publish(webservice.TaskQueue(child), body); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-results.Messages():
		var res protocol.Result
		if err := json.Unmarshal(m.Body, &res); err != nil {
			t.Fatal(err)
		}
		if res.TaskID != task.ID {
			t.Fatalf("result for %s, want %s", res.TaskID, task.ID)
		}
		results.Ack(m.Tag)
	case <-time.After(5 * time.Second):
		t.Fatal("sim agent never served the task")
	}
}
