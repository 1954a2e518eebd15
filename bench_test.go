// Benchmarks regenerating the paper's quantitative artifacts (see
// DESIGN.md's per-experiment index): T1 streaming vs polling, T2 batching,
// T3/T4 ShellFunction mechanics, T5/A2 MPI packing, T6 MEP reuse, T8
// payload paths, plus the A1/A3 ablations and substrate microbenchmarks.
//
// Run with:
//
//	go test -bench=. -benchmem ./...
package globuscompute_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/engine"
	"globuscompute/internal/idmap"
	"globuscompute/internal/mpiengine"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/proxystore"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/sdk"
	"globuscompute/internal/statestore"
	"globuscompute/internal/workload"
)

// benchEnv boots a full deployment for client-path benchmarks.
type benchEnv struct {
	tb     *core.Testbed
	client *sdk.Client
	conn   broker.Conn
	objs   *objectstore.Client
	epID   protocol.UUID
}

func newBenchEnv(b *testing.B, opts core.EndpointOptions) *benchEnv {
	b.Helper()
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 8})
	if err != nil {
		b.Fatal(err)
	}
	tok, err := tb.IssueToken("bench@uchicago.edu", "uchicago")
	if err != nil {
		tb.Close()
		b.Fatal(err)
	}
	if opts.Name == "" {
		opts.Name = "bench-ep"
	}
	if opts.Workers == 0 {
		opts.Workers = 8
	}
	epID, err := tb.StartEndpoint(opts)
	if err != nil {
		tb.Close()
		b.Fatal(err)
	}
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		tb.Close()
		b.Fatal(err)
	}
	e := &benchEnv{
		tb:     tb,
		client: sdk.NewClient(tb.ServiceAddr(), tok.Value),
		conn:   bc,
		objs:   objectstore.NewClient(tb.ObjectsSrv.Addr()),
		epID:   epID,
	}
	b.Cleanup(func() {
		bc.Close()
		tb.Close()
	})
	return e
}

// --- T1: executor streaming vs polling ---

func benchTasksThrough(b *testing.B, ex *sdk.Executor) {
	b.Helper()
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fut.ResultWithin(60 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorStreaming(b *testing.B) {
	e := newBenchEnv(b, core.EndpointOptions{})
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: e.client, EndpointID: e.epID, Conn: e.conn, Objects: e.objs,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ex.Close()
	benchTasksThrough(b, ex)
}

func BenchmarkClientPolling(b *testing.B) {
	for _, interval := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond} {
		b.Run(interval.String(), func(b *testing.B) {
			e := newBenchEnv(b, core.EndpointOptions{})
			ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
				Client: e.client, EndpointID: e.epID, // no Conn: polling
				PollInterval: interval, Objects: e.objs,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer ex.Close()
			benchTasksThrough(b, ex)
		})
	}
}

// --- T2: request batching ---

func benchBatchArm(b *testing.B, maxBatch int) {
	e := newBenchEnv(b, core.EndpointOptions{})
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: e.client, EndpointID: e.epID, Conn: e.conn, Objects: e.objs,
		MaxBatch: maxBatch,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ex.Close()
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	b.ResetTimer()
	futs := make([]*sdk.Future, b.N)
	for i := 0; i < b.N; i++ {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			b.Fatal(err)
		}
		futs[i] = fut
	}
	for _, fut := range futs {
		if _, err := fut.ResultWithin(120 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.client.Requests.Load())/float64(b.N), "rest-reqs/task")
}

func BenchmarkSubmitBatched(b *testing.B) {
	benchBatchArm(b, 512)
}

func BenchmarkSubmitUnbatched(b *testing.B) {
	benchBatchArm(b, 1)
}

// --- T3/T4: ShellFunction mechanics ---

func BenchmarkShellFunction(b *testing.B) {
	e := newBenchEnv(b, core.EndpointOptions{SandboxRoot: b.TempDir()})
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: e.client, EndpointID: e.epID, Conn: e.conn, Objects: e.objs,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ex.Close()
	sf := sdk.NewShellFunction("echo bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fut, err := ex.SubmitShell(sf, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fut.ResultWithin(60 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSandboxOverhead(b *testing.B) {
	for _, sandboxed := range []bool{false, true} {
		name := "shared"
		if sandboxed {
			name = "sandboxed"
		}
		b.Run(name, func(b *testing.B) {
			e := newBenchEnv(b, core.EndpointOptions{SandboxRoot: b.TempDir()})
			ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
				Client: e.client, EndpointID: e.epID, Conn: e.conn, Objects: e.objs,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer ex.Close()
			sf := sdk.NewShellFunction("true")
			sf.Sandbox = sandboxed
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fut, err := ex.SubmitShell(sf, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fut.ResultWithin(60 * time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T5/A2: MPI engine packing ---

func benchMPIEngine(b *testing.B, strategy mpiengine.Strategy, serial bool) {
	const blockNodes = 8
	specs := workload.MPISpecs(1, 64, blockNodes)
	sched := scheduler.SimpleCluster(blockNodes)
	defer sched.Close()
	prov, err := provider.NewBatch(provider.BatchConfig{
		Scheduler: sched, Partition: "default", NodesPerBlock: blockNodes,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := mpiengine.New(mpiengine.Config{Provider: prov, Strategy: strategy})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := specs[i%len(specs)]
		payload, _ := protocol.EncodePayload(protocol.ShellSpec{Command: "true"})
		if err := eng.Submit(protocol.Task{
			ID: protocol.NewUUID(), Kind: protocol.KindMPI, Payload: payload,
			Resources: protocol.ResourceSpec{NumNodes: s.Nodes, RanksPerNode: 1},
		}); err != nil {
			b.Fatal(err)
		}
		if serial {
			<-eng.Results()
		}
	}
	if !serial {
		for i := 0; i < b.N; i++ {
			<-eng.Results()
		}
	}
}

func BenchmarkMPIEnginePacking(b *testing.B) {
	b.Run("packed-fifo", func(b *testing.B) { benchMPIEngine(b, mpiengine.FIFO, false) })
	b.Run("packed-smallest-first", func(b *testing.B) { benchMPIEngine(b, mpiengine.SmallestFirst, false) })
	b.Run("serial-baseline", func(b *testing.B) { benchMPIEngine(b, mpiengine.FIFO, true) })
}

func BenchmarkPartitionerStrategies(b *testing.B) {
	for _, s := range []mpiengine.Strategy{mpiengine.FIFO, mpiengine.SmallestFirst, mpiengine.LargestFirst} {
		b.Run(string(s), func(b *testing.B) { benchMPIEngine(b, s, false) })
	}
}

// --- T6: MEP config-hash reuse ---

func BenchmarkMEPReuse(b *testing.B) {
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	tok, _ := tb.IssueToken("bench@uchicago.edu", "uchicago")
	mapper, err := idmap.NewExpressionMapper([]idmap.Rule{{
		Match: `(.*)@uchicago\.edu`, Output: "{0}",
	}})
	if err != nil {
		b.Fatal(err)
	}
	mepID, _, err := tb.StartMEP(core.MEPOptions{
		Name: "bench-mep", Owner: "admin@uchicago.edu",
		Mapper: mapper,
	})
	if err != nil {
		b.Fatal(err)
	}
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		b.Fatal(err)
	}
	defer bc.Close()
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client:     sdk.NewClient(tb.ServiceAddr(), tok.Value),
		EndpointID: mepID, Conn: bc,
		Objects: objectstore.NewClient(tb.ObjectsSrv.Addr()),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ex.Close()
	ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "bench"}
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	// Pay the spawn once, outside the timer.
	fut, err := ex.Submit(fn, "warmup")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fut.ResultWithin(60 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fut.ResultWithin(60 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T8: payload paths ---

func BenchmarkPayloadViaCloud(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			e := newBenchEnv(b, core.EndpointOptions{})
			ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
				Client: e.client, EndpointID: e.epID, Conn: e.conn, Objects: e.objs,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer ex.Close()
			payload := strings.Repeat("v", size)
			fn := &sdk.PythonFunction{Entrypoint: "identity"}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fut, err := ex.Submit(fn, payload)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fut.ResultWithin(120 * time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPayloadViaProxy(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			e := newBenchEnv(b, core.EndpointOptions{})
			ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
				Client: e.client, EndpointID: e.epID, Conn: e.conn, Objects: e.objs,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer ex.Close()
			store, err := proxystore.NewStore("bench", e.tb.Objects, 64<<20)
			if err != nil {
				b.Fatal(err)
			}
			payload := strings.Repeat("v", size)
			fn := &sdk.PythonFunction{Entrypoint: "identity"}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proxy, err := store.Put(payload)
				if err != nil {
					b.Fatal(err)
				}
				ref := proxy.Reference()
				fut, err := ex.Submit(fn, map[string]any{"ps_store": ref.Store, "ps_key": ref.Key})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fut.ResultWithin(120 * time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A1: manager multiplexing ---

// BenchmarkManagerMultiplexing compares one manager multiplexing N workers
// (the paper's "communication with nodes is multiplexed via managers")
// against N single-worker managers.
func BenchmarkManagerMultiplexing(b *testing.B) {
	const workers = 8
	for _, cfg := range []struct {
		name               string
		managers, perBlock int
	}{
		{"1-manager-x8-workers", 1, workers},
		{"8-managers-x1-worker", 8, 1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			eng, err := engine.New(engine.Config{
				Provider: provider.NewLocal(cfg.perBlock),
				Run: func(_ context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
					return protocol.Result{State: protocol.StateSuccess}
				},
				InitBlocks: cfg.managers, MinBlocks: cfg.managers, MaxBlocks: cfg.managers,
				WorkersPerNode: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				b.Fatal(err)
			}
			defer eng.Stop()
			// Wait for all managers to connect.
			deadline := time.Now().Add(5 * time.Second)
			for eng.Stats().TotalWorkers < workers {
				if time.Now().After(deadline) {
					b.Fatalf("workers = %d", eng.Stats().TotalWorkers)
				}
				time.Sleep(time.Millisecond)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Submit(protocol.Task{ID: protocol.NewUUID()}); err != nil {
					b.Fatal(err)
				}
				<-eng.Results()
			}
		})
	}
}

// BenchmarkEngineTransport compares the in-process channel interchange
// against the framed-TCP transport (the real engine's ZeroMQ-style
// topology) on the same workload.
func BenchmarkEngineTransport(b *testing.B) {
	for _, transport := range []string{"channel", "tcp"} {
		b.Run(transport, func(b *testing.B) {
			eng, err := engine.New(engine.Config{
				Provider: provider.NewLocal(4),
				Run: func(_ context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
					return protocol.Result{State: protocol.StateSuccess, Output: task.Payload}
				},
				InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
				WorkersPerNode: 1,
				Transport:      transport,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				b.Fatal(err)
			}
			defer eng.Stop()
			deadline := time.Now().Add(5 * time.Second)
			for eng.Stats().TotalWorkers < 4 {
				if time.Now().After(deadline) {
					b.Fatalf("workers = %d", eng.Stats().TotalWorkers)
				}
				time.Sleep(time.Millisecond)
			}
			payload := bytes.Repeat([]byte("t"), 256)
			b.SetBytes(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Submit(protocol.Task{ID: protocol.NewUUID(), Payload: payload}); err != nil {
					b.Fatal(err)
				}
				<-eng.Results()
			}
		})
	}
}

// --- substrate microbenchmarks ---

func BenchmarkBrokerPublishConsume(b *testing.B) {
	brk := broker.New()
	defer brk.Close()
	brk.Declare("bench")
	c, _ := brk.Consume("bench", 64)
	body := bytes.Repeat([]byte("m"), 512)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := brk.Publish("bench", body); err != nil {
			b.Fatal(err)
		}
		m := <-c.Messages()
		c.Ack(m.Tag)
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	task := protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindShell, Payload: bytes.Repeat([]byte("p"), 256)}
	env := protocol.Envelope{Type: protocol.EnvTask, ID: string(task.ID), Body: protocol.EncodeTask(&task)}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w := protocol.NewFrameWriter(&buf)
		if err := w.Write(env); err != nil {
			b.Fatal(err)
		}
		r := protocol.NewFrameReader(&buf)
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStateStoreTaskLifecycle(b *testing.B) {
	s := statestore.New()
	ep := protocol.NewUUID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := protocol.Task{ID: protocol.NewUUID(), EndpointID: ep, Kind: protocol.KindPython}
		if err := s.CreateTask(task); err != nil {
			b.Fatal(err)
		}
		s.TransitionTask(task.ID, protocol.StateWaiting)
		s.TransitionTask(task.ID, protocol.StateDelivered)
		s.CompleteTask(protocol.Result{TaskID: task.ID, State: protocol.StateSuccess})
	}
}

func BenchmarkFig2TraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace := workload.Fig2Trace(int64(i))
		if len(trace) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkBrokerSaturation pushes b.N messages through the TCP broker with
// the caller handing over one message per PublishBatch and Ack call vs 32.
// The wire is the same in both arms (every frame a batch); they differ only
// in how many messages a call carries. The repository benchmark's
// broker.tcp_us_per_msg probe (`go run ./benchmark`) measures this path as
// the binaries drive it.
func BenchmarkBrokerSaturation(b *testing.B) {
	for _, batch := range []int{1, 32} {
		b.Run(fmt.Sprintf("tcp-%d-per-call", batch), func(b *testing.B) {
			brk := broker.New()
			if err := brk.Declare("sat"); err != nil {
				b.Fatal(err)
			}
			srv, err := broker.Serve(brk, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			bc, err := broker.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer bc.Close()
			sub, err := bc.Consume("sat", 2*batch+64)
			if err != nil {
				b.Fatal(err)
			}
			defer sub.Cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				seen := 0
				tags := make([]uint64, 0, batch)
				for m := range sub.Messages() {
					tags = append(tags, m.Tag)
					seen++
					if len(tags) >= batch || seen == b.N {
						_ = sub.Ack(tags...)
						tags = tags[:0]
					}
					if seen == b.N {
						return
					}
				}
			}()
			body := bytes.Repeat([]byte("x"), 64)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				k := batch
				if b.N-i < k {
					k = b.N - i
				}
				bodies := make([][]byte, k)
				for j := range bodies {
					bodies[j] = body
				}
				if err := bc.PublishBatch("sat", bodies, nil); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}
