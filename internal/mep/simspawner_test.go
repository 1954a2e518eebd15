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
			res, err := protocol.DecodeResult(m.Body)
			if err != nil {
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
