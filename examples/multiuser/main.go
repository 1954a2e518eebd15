// Multi-user endpoint walkthrough: the paper's §IV and Listings 8-10 — an
// administrator deploys a MEP with an identity mapping and a configuration
// template; two users submit with their own configurations; user endpoints
// spawn under mapped local accounts and are reaped when idle.
//
//	go run ./examples/multiuser
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/idmap"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/sdk"
)

func main() {
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()

	// Listing 8: identities from uchicago.edu map to their local part;
	// a guest account is mapped through a second rule.
	mapper, err := idmap.NewExpressionMapper([]idmap.Rule{
		{Source: "{username}", Match: `(.*)@uchicago\.edu`, Output: "{0}"},
		{Source: "{username}", Match: `(.*)@partner\.org`, Output: "guest_{0}"},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Listing 9 (JSON rendering of the admin template): fixed engine and
	// partition, user-configurable block size, account, and walltime.
	mepID, mgr, err := tb.StartMEP(core.MEPOptions{
		Name: "SlurmHPC", Owner: "admin@uchicago.edu",
		Mapper:      mapper,
		IdleTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multi-user endpoint deployed: %s\n", mepID)

	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		log.Fatal(err)
	}
	defer bc.Close()
	objects := objectstore.NewClient(tb.ObjectsSrv.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Listing 10: each user supplies a configuration matching the
	// template's variables; the same config hash reuses one UEP.
	runAs := func(username string, conf map[string]any) {
		tok, err := tb.IssueToken(username, "uchicago")
		if err != nil {
			log.Fatal(err)
		}
		client := sdk.NewClient(tb.ServiceAddr(), tok.Value)
		ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
			Client: client, EndpointID: mepID, Conn: bc, Objects: objects,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer ex.Close()
		ex.UserEndpointConfig = conf

		fut, err := ex.SubmitShell(sdk.NewShellFunction("echo running as $GC_LOCAL_USER"), nil)
		if err != nil {
			log.Fatal(err)
		}
		sr, err := fut.ShellResult(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s -> %s\n", username, sr.Stdout)
	}

	runAs("alice@uchicago.edu", map[string]any{
		"NODES_PER_BLOCK": 2, "ACCOUNT_ID": "314159265", "WALLTIME": "00:20:00",
	})
	runAs("bob@uchicago.edu", map[string]any{
		"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "271828182",
	})
	// Same config as alice's -> the service routes to her existing UEP.
	runAs("alice@uchicago.edu", map[string]any{
		"NODES_PER_BLOCK": 2, "ACCOUNT_ID": "314159265", "WALLTIME": "00:20:00",
	})

	stats := mgr.Stats()
	fmt.Printf("user endpoints spawned: %d (by local account: %v)\n",
		stats.ChildrenSpawned, stats.ByLocalUser)

	// Idle reaping: "once the submitted tasks are completed, the user
	// endpoint is destroyed".
	deadline := time.Now().Add(30 * time.Second)
	for mgr.Stats().ActiveChildren > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Printf("idle user endpoints reaped: %d active remain\n", mgr.Stats().ActiveChildren)

	// An unmapped identity is refused access (no SSH account needed, no
	// endpoint spawned).
	tok, _ := tb.IssueToken("stranger@elsewhere.net", "elsewhere")
	client := sdk.NewClient(tb.ServiceAddr(), tok.Value)
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: client, EndpointID: mepID, Conn: bc, Objects: objects,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ex.Close()
	ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "0"}
	if _, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, 1); err == nil {
		time.Sleep(300 * time.Millisecond) // let the MEP log the rejection
	}
	fmt.Printf("unauthorized identities rejected: %d\n", mgr.Stats().IdentityRejected)
}
