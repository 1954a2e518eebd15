// Command gc-endpoint runs a single-user endpoint agent against a running
// gc-webservice: it registers the endpoint, connects to the broker, and
// executes python-kind (builtin registry), shell, and optionally MPI tasks
// on a local worker pool or a simulated batch cluster.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"globuscompute/internal/endpoint"
	"globuscompute/internal/engine"
	"globuscompute/internal/metrics"
	"globuscompute/internal/mpiengine"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/provider"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/sdk"
	"globuscompute/internal/serialize"
	"globuscompute/internal/shellfn"
	"globuscompute/internal/webservice"
)

func main() {
	var (
		service     = flag.String("service", "127.0.0.1:8080", "web service address")
		token       = flag.String("token", "", "bearer token (from gc-webservice output)")
		name        = flag.String("name", "go-endpoint", "endpoint display name")
		workers     = flag.Int("workers", 4, "worker pool size")
		withMPI     = flag.Bool("mpi", false, "attach a GlobusMPIEngine over a simulated cluster")
		mpiNodes    = flag.Int("mpi-nodes", 4, "simulated cluster nodes for the MPI engine")
		sandbox     = flag.String("sandbox-root", os.TempDir(), "ShellFunction sandbox root")
		transport   = flag.String("transport", "channel", "engine interchange transport: channel or tcp")
		brokerCA    = flag.String("broker-ca", "", "CA PEM for a TLS broker (from gc-webservice -broker-tls)")
		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics (agent + engine registries, Prometheus text) on this address")
		spillAt     = flag.Int("spill-threshold", serialize.DefaultInlineThreshold, "result bytes above which outputs spill to the object store as references (0 = always inline)")
		dedupCache  = flag.Int64("dedup-cache", endpoint.DefaultDedupCache, "bytes of fetched payloads cached for fan-out dedup (0 = no cache)")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -metrics-addr mux (off by default)")
	)
	flag.Parse()
	if *token == "" {
		log.Fatal("gc-endpoint: -token required")
	}
	if *pprofOn && *metricsAddr == "" {
		log.Fatal("gc-endpoint: -pprof requires -metrics-addr (pprof serves on the metrics mux)")
	}

	client := sdk.NewClient(*service, *token)
	reg, err := client.RegisterEndpoint(webservice.RegisterEndpointRequest{Name: *name})
	if err != nil {
		log.Fatalf("gc-endpoint: register: %v", err)
	}
	fmt.Printf("gc-endpoint registered: %s\n", reg.EndpointID)
	fmt.Printf("  task queue:   %s\n", reg.TaskQueue)
	fmt.Printf("  result queue: %s\n", reg.ResultQueue)

	cfg := endpoint.StackConfig{
		EndpointID: reg.EndpointID,
		BrokerAddr: reg.BrokerAddr, BrokerCA: *brokerCA,
		Objects:        objectstore.NewClient(reg.ObjectsAddr),
		SpillThreshold: *spillAt,
		DedupCache:     *dedupCache,
		Runner:         endpoint.RunnerConfig{Shell: shellfn.Options{SandboxRoot: *sandbox}},
		Engine: engine.Config{
			Provider:   provider.NewLocal(*workers),
			InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
			Transport: *transport,
		},
		Heartbeat: client.Heartbeat,
	}
	if *withMPI {
		sched := scheduler.SimpleCluster(*mpiNodes)
		defer sched.Close()
		prov, err := provider.NewBatch(provider.BatchConfig{
			Scheduler: sched, Partition: "default", NodesPerBlock: *mpiNodes,
		})
		if err != nil {
			log.Fatalf("gc-endpoint: mpi provider: %v", err)
		}
		cfg.MPI = &mpiengine.Config{Provider: prov}
		fmt.Printf("  MPI engine:   %d simulated nodes\n", *mpiNodes)
	}
	ep, err := endpoint.OpenStack(cfg)
	if err != nil {
		log.Fatalf("gc-endpoint: %v", err)
	}
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if ep.WriteMetrics(w) == nil {
				_ = metrics.WriteRuntime(w)
			}
		})
		if *pprofOn {
			// Agent-side continuous-profiling hook: the scenario harness (and
			// ad-hoc `go tool pprof`) capture CPU/heap profiles at burst peak.
			mux.HandleFunc("GET /debug/pprof/", pprof.Index)
			mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
			fmt.Printf("  pprof:        http://%s/debug/pprof/\n", *metricsAddr)
		}
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("gc-endpoint: metrics server: %v", err)
			}
		}()
		fmt.Printf("  metrics:      http://%s/metrics\n", *metricsAddr)
	}
	fmt.Println("gc-endpoint online; waiting for tasks")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("gc-endpoint: draining")
	ep.Stop() // the drain order is endpoint.Stack.Stop's
	fmt.Println("gc-endpoint: drained cleanly")
}
