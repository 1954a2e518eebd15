package webservice

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/durable"
	"globuscompute/internal/metrics"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/statestore"
	"globuscompute/internal/trace"
)

// StackConfig describes one cloud-side deployment: the service plus every
// substrate under it. cmd/gc-webservice fills it from flags; core.Testbed
// and the harnesses fill it from their options, so all of them run the
// wiring that ships.
type StackConfig struct {
	// Service carries the service-level settings (spill threshold,
	// admission, queue bounds, placement, pprof, ...). OpenStack supplies
	// Store, Broker, Objects, Auth, Tracer and DurableMetrics itself.
	Service Config
	// DataDir, when set, makes the control plane durable: the statestore
	// and broker recover from and journal to WALs under state/ and broker/,
	// and the object store is file-backed under objects/ so spilled
	// references recorded in the WAL stay resolvable across a restart.
	// Empty keeps everything in memory.
	DataDir string
	// SnapshotEvery is the snapshot + log compaction cadence with DataDir
	// (0 = durable.DefaultSnapshotEvery, <0 = no background snapshots).
	SnapshotEvery time.Duration

	// HTTPAddr, BrokerAddr and ObjectsAddr are the listen addresses of the
	// REST API, the broker and the object store. An empty HTTPAddr serves
	// nothing: the stack is reachable in-process only.
	HTTPAddr, BrokerAddr, ObjectsAddr string
	// BrokerTLS serves the broker over TLS with a freshly minted identity
	// whose CA certificate is written to BrokerCAOut for agents to pin.
	BrokerTLS   bool
	BrokerCAOut string

	// Watchdog, with Interval > 0, runs the heartbeat/task-lease watchdog.
	Watchdog WatchdogConfig
	// RetentionEvery > 0 sweeps results older than ResultRetention at that
	// cadence.
	RetentionEvery time.Duration
	// SLOEvery > 0 evaluates the fleet SLO rules on a timer, so alert
	// transitions happen even when nobody scrapes /debug/fleet.
	SLOEvery time.Duration
}

// Stack is a running cloud side: auth, state store, broker, object store,
// the service over them and, when addresses were given, their listeners.
type Stack struct {
	Auth    *auth.Service
	Store   *statestore.Store
	Broker  *broker.Broker
	Objects *objectstore.Store
	Service *Service

	// Traces collects the service's and the broker's spans (agents in the
	// same process may share it), browsable at /debug/traces.
	Traces *trace.Collector

	// Durable and DurableBroker are the journaled layers under Store and
	// Broker (nil without DataDir).
	Durable       *durable.Store
	DurableBroker *durable.BrokerLog

	// Listeners (nil without HTTPAddr).
	HTTP       *Server
	BrokerSrv  *broker.Server
	ObjectsSrv *objectstore.Server

	stopBackground []func()
	closeOnce      sync.Once
	closeErr       error
}

// OpenStack assembles and starts a deployment. On error everything already
// started is torn down again.
func OpenStack(cfg StackConfig) (_ *Stack, err error) {
	st := &Stack{
		Auth:   auth.NewService(),
		Traces: trace.NewCollector(trace.DefaultCapacity),
	}
	defer func() {
		if err != nil {
			_ = st.Close(context.Background()) // no HTTP server yet: nothing waits
		}
	}()
	tracer := trace.NewTracer("webservice", st.Traces)

	svcCfg := cfg.Service
	if cfg.DataDir != "" {
		if st.Objects, err = objectstore.OpenDir(filepath.Join(cfg.DataDir, "objects")); err != nil {
			return nil, fmt.Errorf("object store: %w", err)
		}
		svcCfg.DurableMetrics = metrics.NewRegistry()
		st.Durable, err = durable.OpenStore(durable.StoreOptions{
			Dir:           filepath.Join(cfg.DataDir, "state"),
			SnapshotEvery: cfg.SnapshotEvery,
			Metrics:       svcCfg.DurableMetrics,
			Tracer:        tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("durable store: %w", err)
		}
		st.DurableBroker, err = durable.OpenBroker(durable.BrokerOptions{
			Dir:           filepath.Join(cfg.DataDir, "broker"),
			SnapshotEvery: cfg.SnapshotEvery,
			Metrics:       svcCfg.DurableMetrics,
			Tracer:        tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("durable broker: %w", err)
		}
		st.Store, st.Broker = st.Durable.State, st.DurableBroker.B
	} else {
		st.Objects, st.Store, st.Broker = objectstore.New(), statestore.New(), broker.New()
	}
	st.Broker.Tracer = trace.NewTracer("broker", st.Traces)

	svcCfg.Store, svcCfg.Broker, svcCfg.Objects, svcCfg.Auth = st.Store, st.Broker, st.Objects, st.Auth
	svcCfg.Tracer = tracer
	if st.Service, err = New(svcCfg); err != nil {
		return nil, err
	}
	if st.Durable != nil {
		// Re-attach result processors for every recovered endpoint so
		// buffered results drain without waiting for agents to re-register.
		if err = st.Service.ResumeEndpoints(); err != nil {
			return nil, fmt.Errorf("resume endpoints: %w", err)
		}
	}

	if cfg.HTTPAddr != "" {
		if err = st.serve(cfg); err != nil {
			return nil, err
		}
	}

	if cfg.RetentionEvery > 0 {
		st.stopBackground = append(st.stopBackground, st.Service.StartRetentionSweeper(ResultRetention, cfg.RetentionEvery))
	}
	if cfg.Watchdog.Interval > 0 {
		st.stopBackground = append(st.stopBackground, st.Service.StartWatchdog(cfg.Watchdog))
	}
	if cfg.SLOEvery > 0 {
		st.stopBackground = append(st.stopBackground, st.Service.StartSLOEvaluator(cfg.SLOEvery))
	}
	return st, nil
}

// serve starts the broker, object-store and REST listeners.
func (st *Stack) serve(cfg StackConfig) error {
	var err error
	if cfg.BrokerTLS {
		st.BrokerSrv, err = serveBrokerTLS(st.Broker, cfg.BrokerAddr, cfg.BrokerCAOut)
	} else {
		st.BrokerSrv, err = broker.Serve(st.Broker, cfg.BrokerAddr)
	}
	if err != nil {
		return fmt.Errorf("broker: %w", err)
	}
	if st.ObjectsSrv, err = objectstore.ServeHTTP(st.Objects, cfg.ObjectsAddr); err != nil {
		return fmt.Errorf("objects: %w", err)
	}
	if st.HTTP, err = ServeHTTP(st.Service, cfg.HTTPAddr, st.BrokerSrv.Addr(), st.ObjectsSrv.Addr()); err != nil {
		return fmt.Errorf("http: %w", err)
	}
	return nil
}

// serveBrokerTLS mints a broker identity, writes its CA certificate to caOut
// and serves the broker over TLS.
func serveBrokerTLS(b *broker.Broker, addr, caOut string) (*broker.Server, error) {
	cert, _, err := broker.GenerateIdentity()
	if err != nil {
		return nil, fmt.Errorf("identity: %w", err)
	}
	pemData, err := broker.CertPEM(cert)
	if err != nil {
		return nil, fmt.Errorf("ca: %w", err)
	}
	if err := os.WriteFile(caOut, pemData, 0o644); err != nil {
		return nil, fmt.Errorf("write ca: %w", err)
	}
	return broker.ServeTLS(b, addr, cert)
}

// Close drains the stack. The order matters: (1) stop HTTP intake
// gracefully, waiting until ctx expires, so accepted submits finish
// journaling instead of being torn off mid-handler; (2) stop the background
// mutators (watchdog lease expiry, retention sweeps) before the durable
// layer closes — they journal through the same WAL and must not write to a
// closed log; (3) drain the service's result processors; (4) close the wire
// servers and the broker; (5) final snapshot, WAL fsync and close. It
// returns what went wrong on the way, and is safe to call twice.
func (st *Stack) Close(ctx context.Context) error {
	st.closeOnce.Do(func() { st.closeErr = st.drain(ctx) })
	return st.closeErr
}

func (st *Stack) drain(ctx context.Context) error {
	var errs []error
	if st.HTTP != nil {
		if err := st.HTTP.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("http drain: %w", err))
			st.HTTP.Close()
		}
	}
	for _, stop := range st.stopBackground {
		stop()
	}
	if st.Service != nil {
		st.Service.Close()
	}
	if st.BrokerSrv != nil {
		st.BrokerSrv.Close()
	}
	if st.ObjectsSrv != nil {
		st.ObjectsSrv.Close()
	}
	if st.Broker != nil {
		st.Broker.Close()
	}
	if st.Durable != nil {
		if err := st.Durable.Close(); err != nil {
			errs = append(errs, fmt.Errorf("durable store close: %w", err))
		}
	}
	if st.DurableBroker != nil {
		if err := st.DurableBroker.Close(); err != nil {
			errs = append(errs, fmt.Errorf("durable broker close: %w", err))
		}
	}
	return errors.Join(errs...)
}
