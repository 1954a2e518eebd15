// ShellFunction and MPIFunction walkthrough: the paper's Listings 2, 3,
// and 6/7 — wrapping external commands, walltime enforcement, and MPI
// applications with resource specifications on a simulated cluster.
//
//	go run ./examples/shellmpi
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
)

func main() {
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	tok, err := tb.IssueToken("hpc-user@example.edu", "example")
	if err != nil {
		log.Fatal(err)
	}
	endpointID, err := tb.StartEndpoint(core.EndpointOptions{
		Name: "hpc-endpoint", Owner: "hpc-user@example.edu",
		WithMPI: true, MPIBlockNodes: 2, Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	client := sdk.NewClient(tb.ServiceAddr(), tok.Value)
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		log.Fatal(err)
	}
	defer bc.Close()
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: client, EndpointID: endpointID, Conn: bc,
		Objects: objectstore.NewClient(tb.ObjectsSrv.Addr()),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ex.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Listing 2: ShellFunction with invocation-time formatting.
	fmt.Println("-- Listing 2: ShellFunction('echo {message}') --")
	sf := sdk.NewShellFunction("echo '{message}'")
	for _, msg := range []string{"hello", "hola", "bonjour"} {
		fut, err := ex.SubmitShell(sf, map[string]string{"message": msg})
		if err != nil {
			log.Fatal(err)
		}
		sr, err := fut.ShellResult(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(sr.Stdout)
	}

	// Listing 3: walltime -> return code 124.
	fmt.Println("-- Listing 3: walltime enforcement --")
	bf := sdk.NewShellFunction("sleep 2")
	bf.WalltimeSec = 1
	fut, err := ex.SubmitShell(bf, nil)
	if err != nil {
		log.Fatal(err)
	}
	sr, err := fut.ShellResult(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("returncode: %d\n", sr.ReturnCode)

	// Listings 6/7: MPIFunction with a resource specification. GC_NODE is
	// the simulated launcher's hostname equivalent.
	fmt.Println("-- Listing 6/7: MPIFunction hostname --")
	mpiFn := sdk.NewMPIFunction("echo $GC_NODE")
	for n := 1; n <= 2; n++ {
		fmt.Printf("n=%d\n", n)
		ex.ResourceSpec = protocol.ResourceSpec{NumNodes: 2, RanksPerNode: n}
		fut, err := ex.SubmitMPI(mpiFn, nil)
		if err != nil {
			log.Fatal(err)
		}
		sr, err := fut.ShellResult(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(sr.Stdout)
	}
}
