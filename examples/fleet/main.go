// Fleet scheduling walkthrough: the paper's §VI Delta and GreenFaaS
// patterns — route tasks across heterogeneous endpoints using online
// runtime profiles (fastest) or an energy model (greenest).
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/fleet"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/sdk"
)

func main() {
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	tok, err := tb.IssueToken("scheduler@example.edu", "example")
	if err != nil {
		log.Fatal(err)
	}
	client := sdk.NewClient(tb.ServiceAddr(), tok.Value)
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		log.Fatal(err)
	}
	defer bc.Close()
	objects := objectstore.NewClient(tb.ObjectsSrv.Addr())

	// Two endpoints with very different capacity and power draw: a big
	// HPC allocation and a small edge box.
	makeTarget := func(name string, workers int, watts float64) *fleet.Target {
		epID, err := tb.StartEndpoint(core.EndpointOptions{
			Name: name, Owner: "scheduler@example.edu",
			Workers: workers, MaxBlocks: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
			Client: client, EndpointID: epID, Conn: bc, Objects: objects,
		})
		if err != nil {
			log.Fatal(err)
		}
		return &fleet.Target{Name: name, Endpoint: epID, Executor: ex, PowerWatts: watts}
	}
	hpc := makeTarget("hpc-allocation", 8, 400)
	edge := makeTarget("edge-box", 1, 40)
	defer hpc.Executor.Close()
	defer edge.Executor.Close()

	work := sdk.NewShellFunction("sleep 0.04")
	runPolicy := func(policy fleet.Policy) {
		sched, err := fleet.NewScheduler(policy, []*fleet.Target{hpc, edge})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		for round := 0; round < 8; round++ {
			var futs []*sdk.Future
			for j := 0; j < 4; j++ {
				fut, _, err := sched.SubmitShell(work, nil)
				if err != nil {
					log.Fatal(err)
				}
				futs = append(futs, fut)
			}
			for _, fut := range futs {
				if _, err := fut.ResultWithin(time.Minute); err != nil {
					log.Fatal(err)
				}
			}
		}
		routed := sched.Routed()
		fmt.Printf("%-12s %6dms  routed hpc=%d edge=%d", policy,
			time.Since(start).Milliseconds(), routed["hpc-allocation"], routed["edge-box"])
		if energy := sched.EstimatedEnergy(work.Command); len(energy) > 0 {
			fmt.Printf("  est. J/task hpc=%.2f edge=%.2f", energy["hpc-allocation"], energy["edge-box"])
		}
		fmt.Println()
	}

	fmt.Println("policy       makespan  routing")
	runPolicy(fleet.RoundRobin)
	runPolicy(fleet.Fastest)  // Delta: runtime-predictive routing
	runPolicy(fleet.Greenest) // GreenFaaS: energy-predictive routing
}
