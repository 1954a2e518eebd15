// Command gc-mep runs a multi-user endpoint against a running
// gc-webservice: administrators configure an identity-mapping file and a
// configuration template; the MEP then spawns user endpoints on request,
// backed by a simulated batch cluster in this process.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/idmap"
	"globuscompute/internal/mep"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/sdk"
	"globuscompute/internal/webservice"
)

func main() {
	var (
		service     = flag.String("service", "127.0.0.1:8080", "web service address")
		token       = flag.String("token", "", "bearer token with the manage scope")
		name        = flag.String("name", "go-mep", "endpoint display name")
		mapFile     = flag.String("idmap", "", "identity mapping JSON file (Listing 8 format); default maps any user@domain to user")
		tmplFile    = flag.String("template", "", "configuration template file; default is the Listing 9 equivalent")
		nodes       = flag.Int("nodes", 16, "simulated cluster size backing spawned endpoints")
		idleTimeout = flag.Duration("idle-timeout", time.Minute, "reap user endpoints idle this long (0 = never)")
		sandbox     = flag.String("sandbox-root", os.TempDir(), "ShellFunction sandbox root")
	)
	flag.Parse()
	if *token == "" {
		log.Fatal("gc-mep: -token required")
	}

	var mapper idmap.Mapper
	if *mapFile != "" {
		data, err := os.ReadFile(*mapFile)
		if err != nil {
			log.Fatalf("gc-mep: idmap: %v", err)
		}
		rules, err := idmap.ParseRules(data)
		if err != nil {
			log.Fatalf("gc-mep: idmap: %v", err)
		}
		mapper, err = idmap.NewExpressionMapper(rules)
		if err != nil {
			log.Fatalf("gc-mep: idmap: %v", err)
		}
	} else {
		m, err := idmap.NewExpressionMapper([]idmap.Rule{{
			Match: `(.*)@.*`, Output: "{0}",
		}})
		if err != nil {
			log.Fatal(err)
		}
		mapper = m
	}

	tmpl := core.DefaultMEPTemplate
	if *tmplFile != "" {
		data, err := os.ReadFile(*tmplFile)
		if err != nil {
			log.Fatalf("gc-mep: template: %v", err)
		}
		tmpl = string(data)
	}

	client := sdk.NewClient(*service, *token)
	reg, err := client.RegisterEndpoint(webservice.RegisterEndpointRequest{Name: *name, MultiUser: true})
	if err != nil {
		log.Fatalf("gc-mep: register: %v", err)
	}
	fmt.Printf("gc-mep registered: %s\n", reg.EndpointID)
	fmt.Printf("  command queue: %s\n", reg.CommandQueue)

	// One connection for the manager and every user endpoint it spawns,
	// dialed the way gc-endpoint dials.
	conn, err := broker.Connect(reg.BrokerAddr, "")
	if err != nil {
		log.Fatalf("gc-mep: broker: %v", err)
	}
	defer conn.Close()
	sched := scheduler.SimpleCluster(*nodes)
	defer sched.Close()

	mgr, err := mep.New(mep.Config{
		EndpointID:  reg.EndpointID,
		Conn:        conn,
		Mapper:      mapper,
		Template:    tmpl,
		Schema:      core.DefaultMEPSchema(),
		IdleTimeout: *idleTimeout,
		Spawn: mep.NewAgentSpawner(mep.SpawnerDeps{
			Scheduler:   sched,
			Conn:        conn,
			Objects:     objectstore.NewClient(reg.ObjectsAddr),
			SandboxRoot: *sandbox,
			Heartbeat:   client.Heartbeat,
		}),
		Heartbeat: func(online bool) {
			if err := client.Heartbeat(reg.EndpointID, online, nil, nil); err != nil {
				log.Printf("gc-mep: heartbeat: %v", err)
			}
		},
	})
	if err != nil {
		log.Fatalf("gc-mep: %v", err)
	}
	if err := mgr.Start(); err != nil {
		log.Fatalf("gc-mep: start: %v", err)
	}
	fmt.Printf("gc-mep online; %d simulated nodes; waiting for start-endpoint requests\n", *nodes)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("gc-mep: shutting down")
	mgr.Stop()
}
