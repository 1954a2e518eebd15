// Command gc-webservice runs the cloud side of the stack in one process:
// auth service, state store, message broker, object store, and the REST web
// service (webservice.OpenStack holds the wiring and the drain order). It
// prints connection details and a bootstrap bearer token for the demo
// identity, then serves until interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/durable"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/webservice"
)

func main() {
	var (
		httpAddr    = flag.String("http", "127.0.0.1:8080", "REST API listen address")
		brokerAddr  = flag.String("broker", "127.0.0.1:8081", "broker listen address")
		objectsAddr = flag.String("objects", "127.0.0.1:8082", "object store listen address")
		user        = flag.String("bootstrap-user", "demo@example.edu", "identity to mint a bootstrap token for")
		tokenTTL    = flag.Duration("token-ttl", 24*time.Hour, "bootstrap token lifetime")
		brokerTLS   = flag.Bool("broker-tls", false, "serve the broker over TLS (AMQPS equivalent)")
		caOut       = flag.String("broker-ca-out", "broker-ca.pem", "where to write the broker CA certificate with -broker-tls")
		taskLease   = flag.Duration("task-lease", 0, "fail non-terminal tasks stuck this long on offline endpoints (0 = buffer forever)")
		dataDir     = flag.String("data-dir", "", "directory for the durable control plane (WAL + snapshots); empty = in-memory only")
		snapEvery   = flag.Duration("snapshot-every", durable.DefaultSnapshotEvery, "snapshot + log compaction cadence with -data-dir")
		admitRate   = flag.Float64("admit-rate", 0, "per-tenant admitted tasks/sec before 429 sheds (0 = admission off)")
		admitBurst  = flag.Float64("admit-burst", 0, "per-tenant burst allowance in tasks (0 = 2x -admit-rate)")
		maxInFlight = flag.Int("max-inflight", 0, "per-tenant in-flight task cap (0 = 4x burst, requires -admit-rate)")
		queueLimit  = flag.Int("queue-limit", 0, "per-endpoint broker queue depth bound (0 = unbounded)")
		backlogShed = flag.Int("backlog-shed", 0, "shed batch submits when an endpoint reports this much egress backlog (0 = off)")
		drainWait   = flag.Duration("drain-timeout", 15*time.Second, "max wait for in-flight HTTP requests on SIGTERM")
		spillAt     = flag.Int("spill-threshold", 0, "payload/result bytes above which data spills to the object store as a content-addressed reference (0 = default 64KiB)")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (token-authenticated; off by default)")
	)
	flag.Parse()

	// Overload protection: per-tenant token-bucket admission at the front
	// door, bounded per-endpoint broker queues, and backlog-driven sheds.
	var admission *scheduler.Admission
	if *admitRate > 0 {
		admission = scheduler.NewAdmission(scheduler.AdmissionConfig{
			FillRate:    *admitRate,
			Burst:       *admitBurst,
			MaxInFlight: *maxInFlight,
		})
	}
	st, err := webservice.OpenStack(webservice.StackConfig{
		Service: webservice.Config{
			Admission:            admission,
			QueueLimit:           *queueLimit,
			BacklogShedThreshold: *backlogShed,
			InlineThreshold:      *spillAt,
			Pprof:                *pprofOn,
		},
		DataDir:       *dataDir,
		SnapshotEvery: *snapEvery,
		HTTPAddr:      *httpAddr,
		BrokerAddr:    *brokerAddr,
		ObjectsAddr:   *objectsAddr,
		BrokerTLS:     *brokerTLS,
		BrokerCAOut:   *caOut,
		// Production housekeeping: two-week result retention, offline
		// detection for silent endpoints, (when -task-lease is set) bounded
		// in-flight leases so tasks on dead endpoints fail instead of
		// pending forever, and fleet SLO evaluation on a timer.
		RetentionEvery: time.Hour,
		Watchdog: webservice.WatchdogConfig{
			HeartbeatTimeout: 30 * time.Second,
			Interval:         10 * time.Second,
			TaskLease:        *taskLease,
		},
		SLOEvery: 15 * time.Second,
	})
	if err != nil {
		log.Fatalf("gc-webservice: %v", err)
	}
	if st.HTTP == nil {
		log.Fatal("gc-webservice: -http needs a listen address")
	}
	if *brokerTLS {
		fmt.Printf("  broker CA written to %s (pass to agents via -broker-ca)\n", *caOut)
	}

	tok, err := st.Auth.Issue(
		auth.Identity{Username: *user, Provider: "bootstrap"},
		[]string{auth.ScopeCompute, auth.ScopeManage}, *tokenTTL, time.Time{})
	if err != nil {
		log.Fatalf("gc-webservice: token: %v", err)
	}

	fmt.Printf("gc-webservice up\n")
	if *dataDir != "" {
		fmt.Printf("  data dir:     %s (durable control plane)\n", *dataDir)
	}
	fmt.Printf("  REST API:     http://%s\n", st.HTTP.Addr())
	fmt.Printf("  broker:       %s\n", st.BrokerSrv.Addr())
	fmt.Printf("  object store: %s\n", st.ObjectsSrv.Addr())
	fmt.Printf("  bootstrap token (%s): %s\n", *user, tok.Value)
	fmt.Printf("  dashboard:    http://%s/dashboard?token=%s\n", st.HTTP.Addr(), tok.Value)
	fmt.Printf("  traces:       http://%s/debug/traces?token=%s\n", st.HTTP.Addr(), tok.Value)
	fmt.Printf("  metrics:      http://%s/metrics?token=%s\n", st.HTTP.Addr(), tok.Value)
	fmt.Printf("  fleet:        http://%s/debug/fleet?token=%s\n", st.HTTP.Addr(), tok.Value)
	fmt.Printf("  federation:   http://%s/metrics/fleet?token=%s\n", st.HTTP.Addr(), tok.Value)
	fmt.Printf("  logs:         http://%s/debug/logs?token=%s\n", st.HTTP.Addr(), tok.Value)
	if *pprofOn {
		fmt.Printf("  pprof:        http://%s/debug/pprof/?token=%s\n", st.HTTP.Addr(), tok.Value)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("gc-webservice: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := st.Close(drainCtx); err != nil {
		log.Printf("gc-webservice: %v", err)
	}
	fmt.Println("gc-webservice: drained cleanly")
}
