// Quickstart: the paper's Listing 1 — submit a function through the
// future-based Executor and print its result.
//
// The whole stack (web service, broker, object store, an endpoint with a
// local worker pool) boots inside this process, so it runs offline:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/sdk"
)

func main() {
	// Boot the deployment: cloud services plus a simulated cluster.
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()

	// Authenticate (Globus Auth substitute) and start an endpoint.
	tok, err := tb.IssueToken("demo@example.edu", "example")
	if err != nil {
		log.Fatal(err)
	}
	endpointID, err := tb.StartEndpoint(core.EndpointOptions{
		Name: "quickstart-endpoint", Owner: "demo@example.edu", Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("endpoint online: %s\n", endpointID)

	// Listing 1:
	//
	//	with Executor(endpoint_id="...") as ex:
	//	    fut = ex.submit(some_task)
	//	    print("Result:", fut.result())
	client := sdk.NewClient(tb.ServiceAddr(), tok.Value)
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		log.Fatal(err)
	}
	defer bc.Close()
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client:     client,
		EndpointID: endpointID,
		Conn:       bc, // streamed results, no polling
		Objects:    objectstore.NewClient(tb.ObjectsSrv.Addr()),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ex.Close()

	someTask := &sdk.PythonFunction{Entrypoint: "identity"}
	fut, err := ex.Submit(someTask, 1)
	if err != nil {
		log.Fatal(err)
	}
	result, err := fut.ResultWithin(30 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Result: %s\n", result)

	// Futures compose: fan out a batch and gather.
	add := &sdk.PythonFunction{Entrypoint: "add"}
	var futs []*sdk.Future
	for i := 1; i <= 5; i++ {
		f, err := ex.Submit(add, i, i*10)
		if err != nil {
			log.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i, f := range futs {
		out, err := f.ResultWithin(30 * time.Second)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("add(%d, %d) = %s\n", i+1, (i+1)*10, out)
	}
}
