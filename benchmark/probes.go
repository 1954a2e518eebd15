package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/durable"
	"globuscompute/internal/endpoint"
	"globuscompute/internal/engine"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/registry"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/serialize"
	"globuscompute/internal/shellfn"
	"globuscompute/internal/statestore"
	"globuscompute/internal/webservice"
)

// Layer probes replay the workload's first probeTasks generated tasks, in
// batches of probeBatch, straight into one layer's public API inside the
// benchmark process. They give each layer's own cost per task with nothing
// else running, which is what the traced run's budget is built from.
const (
	probeTasks = 2000
	probeBatch = 64
	probeUser  = "probe@example.edu"
	// probeBlobs caps the objectstore transfer probe; 100 blobs of 200 kB
	// move 20 MB each way, enough for a stable rate.
	probeBlobs = 100
	probeReps  = 3
)

// probeInput is the workload's task list in the forms the layers take.
type probeInput struct {
	payloads  [][]byte // PythonSpec JSON, what the SDK puts in SubmitRequest.Payload
	tasks     []protocol.Task
	bodies    [][]byte // json.Marshal(task): the message body on the task queue
	blobs     [][]byte // payloads over the spill threshold, in order, repeats included
	userBytes int64
}

// newProbeInput builds the tasks the webservice would create: payloads over
// the 64 KiB inline threshold are replaced by their content reference.
func newProbeInput(w workload, seed int64, n int) (*probeInput, error) {
	gen := newGenerator(w, seed)
	in := &probeInput{}
	epID, fnID := protocol.NewUUID(), protocol.NewUUID()
	for i := 0; i < n; i++ {
		t := gen.task(i)
		spec := protocol.PythonSpec{Entrypoint: "add"}
		if t.kind == kindAdd {
			spec.Args = []json.RawMessage{json.RawMessage(fmt.Sprint(t.a)), json.RawMessage(fmt.Sprint(t.b))}
		} else {
			arg, err := json.Marshal(t.s)
			if err != nil {
				return nil, err
			}
			spec.Entrypoint, spec.Args = "identity", []json.RawMessage{arg}
		}
		payload, err := protocol.EncodePayload(spec)
		if err != nil {
			return nil, err
		}
		pt := protocol.Task{
			ID: protocol.NewUUID(), FunctionID: fnID, EndpointID: epID, Kind: protocol.KindPython,
			Payload: payload, UserIdentity: probeUser, Submitted: time.Now(),
		}
		if len(payload) > serialize.DefaultInlineThreshold {
			pt.PayloadRef, pt.Payload = objectstore.ContentKey(payload), nil
			in.blobs = append(in.blobs, payload)
		}
		body, err := json.Marshal(pt)
		if err != nil {
			return nil, err
		}
		in.payloads = append(in.payloads, payload)
		in.tasks = append(in.tasks, pt)
		in.bodies = append(in.bodies, body)
		in.userBytes += int64(t.userBytes())
	}
	return in, nil
}

// batches calls fn with [lo, hi) for consecutive batches of probeBatch.
func (in *probeInput) batches(fn func(lo, hi int) error) error {
	for lo := 0; lo < len(in.tasks); lo += probeBatch {
		if err := fn(lo, min(lo+probeBatch, len(in.tasks))); err != nil {
			return err
		}
	}
	return nil
}

func (in *probeInput) ids(lo, hi int) []protocol.UUID {
	ids := make([]protocol.UUID, hi-lo)
	for i := range ids {
		ids[i] = in.tasks[lo+i].ID
	}
	return ids
}

func (in *probeInput) results(lo, hi int) []protocol.Result {
	out := make([]protocol.Result, hi-lo)
	for i := range out {
		out[i] = protocol.Result{TaskID: in.tasks[lo+i].ID, State: protocol.StateSuccess, Output: []byte("1")}
	}
	return out
}

// blobStore is an in-memory object store preloaded with the input's blobs.
func (in *probeInput) blobStore() (*objectstore.Store, error) {
	store := objectstore.New()
	for _, b := range in.blobs {
		if _, err := store.PutContent(b); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// perItem converts a total duration into a per-item figure in the given unit.
func perItem(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// runProbes runs every layer probe and returns metric name -> value.
func runProbes(w workload, seed int64, n int, workDir string) (map[string]float64, error) {
	// The in-process layers log recoveries and audit lines; the probes' own
	// output is the numbers.
	obs.SetDefault(obs.NewPipeline(obs.PipelineConfig{}))
	in, err := newProbeInput(w, seed, n)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Each probe runs probeReps times, after a collection so that one
	// probe's garbage is not the next one's pause; the median is reported.
	samples := make(map[string][]float64)
	for rep := 0; rep < probeReps; rep++ {
		repDir := filepath.Join(dir, fmt.Sprint("rep-", rep))
		if err := os.Mkdir(repDir, 0o755); err != nil {
			return nil, err
		}
		for _, probe := range []func(*probeInput, string, map[string]float64) error{
			probeAuthAdmission, probeStatestore, probeWebservice, probeDurable,
			probeBroker, probeProtocol, probeEngine, probeAgent, probeObjectstore,
		} {
			runtime.GC()
			got := make(map[string]float64)
			if err := probe(in, repDir, got); err != nil {
				return nil, err
			}
			for k, v := range got {
				samples[k] = append(samples[k], v)
			}
		}
		if err := os.RemoveAll(repDir); err != nil {
			return nil, err
		}
	}
	out := make(map[string]float64, len(samples))
	for k, v := range samples {
		out[k] = median(v)
	}
	return out, nil
}

func probeAuthAdmission(in *probeInput, _ string, out map[string]float64) error {
	svc := auth.NewService()
	tok, err := svc.Issue(auth.Identity{Username: probeUser, Provider: "probe"}, []string{auth.ScopeCompute}, time.Hour, time.Time{})
	if err != nil {
		return err
	}
	const introspections = 200_000
	start := time.Now()
	for i := 0; i < introspections; i++ {
		if _, err := svc.Introspect(tok.Value); err != nil {
			return err
		}
	}
	out["auth.introspect_ns"] = perItem(time.Since(start), introspections, time.Nanosecond)

	adm := scheduler.NewAdmission(scheduler.AdmissionConfig{FillRate: 1_000_000})
	start = time.Now()
	err = in.batches(func(lo, hi int) error {
		if d := adm.Admit(probeUser, hi-lo); !d.OK {
			return fmt.Errorf("admission probe shed: %s", d.Reason)
		}
		adm.Release(probeUser, hi-lo)
		return nil
	})
	out["scheduler.admit_ns_per_task"] = perItem(time.Since(start), len(in.tasks), time.Nanosecond)
	return err
}

// storeLifecycle drives create -> waiting -> delivered -> complete over the
// input through a statestore, timing each step.
func storeLifecycle(s *statestore.Store, in *probeInput) (create, transition, complete time.Duration, err error) {
	err = in.batches(func(lo, hi int) error {
		ids := in.ids(lo, hi)
		t0 := time.Now()
		if err := s.CreateTasks(in.tasks[lo:hi]); err != nil {
			return err
		}
		t1 := time.Now()
		if err := s.TransitionTasks(ids, protocol.StateWaiting); err != nil {
			return err
		}
		if err := s.TransitionTasks(ids, protocol.StateDelivered); err != nil {
			return err
		}
		t2 := time.Now()
		if errs := s.CompleteTasks(in.results(lo, hi)); errors.Join(errs...) != nil {
			return errors.Join(errs...)
		}
		create += t1.Sub(t0)
		transition += t2.Sub(t1)
		complete += time.Since(t2)
		return nil
	})
	return create, transition, complete, err
}

func probeStatestore(in *probeInput, _ string, out map[string]float64) error {
	s := statestore.New()
	create, transition, complete, err := storeLifecycle(s, in)
	if err != nil {
		return err
	}
	n := len(in.tasks)
	out["statestore.create_ns_per_task"] = perItem(create, n, time.Nanosecond)
	out["statestore.transition_ns_per_task"] = perItem(transition, 2*n, time.Nanosecond)
	out["statestore.complete_ns_per_task"] = perItem(complete, n, time.Nanosecond)
	reads := 0
	start := time.Now()
	for lo := 0; lo+statusIDs <= n; lo += statusIDs {
		if got := s.GetTaskRecords(in.ids(lo, lo+statusIDs)); len(got) != statusIDs {
			return fmt.Errorf("statestore probe: read %d of %d records", len(got), statusIDs)
		}
		reads += statusIDs
	}
	out["statestore.read_ns_per_task"] = perItem(time.Since(start), reads, time.Nanosecond)
	return nil
}

func probeWebservice(in *probeInput, _ string, out map[string]float64) error {
	authSvc := auth.NewService()
	tok, err := authSvc.Issue(auth.Identity{Username: probeUser, Provider: "probe"},
		[]string{auth.ScopeCompute, auth.ScopeManage}, time.Hour, time.Time{})
	if err != nil {
		return err
	}
	brk := broker.New()
	defer brk.Close()
	svc, err := webservice.New(webservice.Config{
		Store: statestore.New(), Broker: brk, Objects: objectstore.New(), Auth: authSvc,
		Admission: scheduler.NewAdmission(scheduler.AdmissionConfig{FillRate: 1_000_000}),
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	epID, err := svc.RegisterEndpoint(webservice.RegisterEndpointRequest{Name: "probe", Owner: probeUser})
	if err != nil {
		return err
	}
	fnID, err := svc.RegisterFunction(probeUser, protocol.KindPython, []byte(`{"entrypoint":"add"}`))
	if err != nil {
		return err
	}
	reqs := make([]webservice.SubmitRequest, len(in.payloads))
	for i, p := range in.payloads {
		reqs[i] = webservice.SubmitRequest{EndpointID: epID, FunctionID: fnID, Payload: p}
	}
	var ids []protocol.UUID
	start := time.Now()
	err = in.batches(func(lo, hi int) error {
		got, err := svc.SubmitBatch(tok, reqs[lo:hi], webservice.SubmitOptions{})
		ids = append(ids, got...)
		return err
	})
	if err != nil {
		return err
	}
	out["webservice.submit_us_per_task"] = perItem(time.Since(start), len(ids), time.Microsecond)
	reads := 0
	start = time.Now()
	for lo := 0; lo+statusIDs <= len(ids); lo += statusIDs {
		if got := svc.GetTasks(ids[lo : lo+statusIDs]); len(got) != statusIDs {
			return fmt.Errorf("webservice probe: read %d of %d statuses", len(got), statusIDs)
		}
		reads += statusIDs
	}
	out["webservice.status_read_us_per_task"] = perItem(time.Since(start), reads, time.Microsecond)
	return nil
}

// pumpBroker publishes the input's bodies to queue in batches, consuming and
// acking each batch before the next, and returns the total time.
func pumpBroker(in *probeInput, queue string, publish func(bodies [][]byte) error, sub broker.Subscription) (time.Duration, error) {
	start := time.Now()
	err := in.batches(func(lo, hi int) error {
		if err := publish(in.bodies[lo:hi]); err != nil {
			return err
		}
		tags := make([]uint64, 0, hi-lo)
		for len(tags) < hi-lo {
			select {
			case m, ok := <-sub.Messages():
				if !ok {
					return fmt.Errorf("broker probe: %s closed", queue)
				}
				tags = append(tags, m.Tag)
			case <-time.After(10 * time.Second):
				return fmt.Errorf("broker probe: %s delivered %d of %d", queue, len(tags), hi-lo)
			}
		}
		return broker.AckBatchOn(sub, tags)
	})
	return time.Since(start), err
}

func pumpLocal(in *probeInput, b *broker.Broker) (time.Duration, error) {
	const queue = "tasks.probe"
	conn := broker.LocalConn(b)
	if err := conn.Declare(queue); err != nil {
		return 0, err
	}
	sub, err := conn.Subscribe(queue, 256)
	if err != nil {
		return 0, err
	}
	defer sub.Cancel()
	return pumpBroker(in, queue, func(bodies [][]byte) error {
		return broker.PublishBatchOn(conn, queue, bodies, nil)
	}, sub)
}

func probeDurable(in *probeInput, dir string, out map[string]float64) error {
	n := len(in.tasks)
	stateDir, brokerDir := filepath.Join(dir, "state"), filepath.Join(dir, "broker")
	// SnapshotEvery < 0: no background snapshot, the probe calls SnapshotNow.
	openStore := func(dir string) (*durable.Store, error) {
		return durable.OpenStore(durable.StoreOptions{Dir: dir, SnapshotEvery: -1})
	}
	openBroker := func(dir string) (*durable.BrokerLog, error) {
		return durable.OpenBroker(durable.BrokerOptions{Dir: dir, SnapshotEvery: -1})
	}
	// A clean Close snapshots, and a reopen would then load the image
	// instead of replaying. The replay probe opens a copy of each directory
	// taken while only the fsynced WAL is on disk, as after a SIGKILL.
	crashState, crashBroker := stateDir+"-crash", brokerDir+"-crash"

	ds, err := openStore(stateDir)
	if err != nil {
		return err
	}
	defer ds.Close()
	create, transition, complete, err := storeLifecycle(ds.State, in)
	if err != nil {
		return err
	}
	out["durable.store_commit_us_per_task"] = perItem(create+transition+complete, n, time.Microsecond)
	if err := copyTree(stateDir, crashState); err != nil {
		return err
	}
	start := time.Now()
	if err := ds.SnapshotNow(); err != nil {
		return err
	}
	out["durable.snapshot_ms"] = perItem(time.Since(start), 1, time.Millisecond)
	// The image is everything under the store's directory outside its WAL.
	image := dirBytes(stateDir) - dirBytes(filepath.Join(stateDir, "wal"))
	out["durable.snapshot_bytes_per_task"] = float64(image) / float64(n)

	db, err := openBroker(brokerDir)
	if err != nil {
		return err
	}
	defer db.Close()
	defer db.B.Close()
	pumped, err := pumpLocal(in, db.B)
	if err != nil {
		return err
	}
	out["durable.broker_commit_us_per_msg"] = perItem(pumped, n, time.Microsecond)
	if err := copyTree(brokerDir, crashBroker); err != nil {
		return err
	}

	start = time.Now()
	rs, err := openStore(crashState)
	if err != nil {
		return err
	}
	defer rs.Close()
	rb, err := openBroker(crashBroker)
	if err != nil {
		return err
	}
	defer rb.Close()
	defer rb.B.Close()
	out["durable.replay_us_per_task"] = perItem(time.Since(start), n, time.Microsecond)
	if got := rs.State.CountTasks(); got != n {
		return fmt.Errorf("durable probe: replay rebuilt %d of %d tasks", got, n)
	}
	return nil
}

// copyTree copies the regular files under src to the same paths under dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func probeBroker(in *probeInput, _ string, out map[string]float64) error {
	n := len(in.tasks)
	b := broker.New()
	defer b.Close()
	d, err := pumpLocal(in, b)
	if err != nil {
		return err
	}
	out["broker.inproc_us_per_msg"] = perItem(d, n, time.Microsecond)

	// The TCP path as the binaries use it: batching and the binary codec on.
	srv, err := broker.Serve(b, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	dial := func() (*broker.Client, error) {
		c, err := broker.Dial(srv.Addr())
		if err != nil {
			return nil, err
		}
		c.EnableBatching(broker.BatchConfig{})
		c.EnableBinary()
		return c, nil
	}
	pub, err := dial()
	if err != nil {
		return err
	}
	defer pub.Close()
	con, err := dial()
	if err != nil {
		return err
	}
	defer con.Close()
	const queue = "tasks.probe-tcp"
	if err := pub.Declare(queue); err != nil {
		return err
	}
	sub, err := con.AsConn().Subscribe(queue, 256)
	if err != nil {
		return err
	}
	defer sub.Cancel()
	d, err = pumpBroker(in, queue, func(bodies [][]byte) error {
		return pub.PublishBatch(queue, bodies, nil)
	}, sub)
	if err != nil {
		return err
	}
	out["broker.tcp_us_per_msg"] = perItem(d, n, time.Microsecond)
	return nil
}

func probeProtocol(in *probeInput, _ string, out map[string]float64) error {
	n := len(in.tasks)
	queue := webservice.TaskQueue(in.tasks[0].EndpointID)
	frames := make([][]byte, n)
	start := time.Now()
	for i, body := range in.bodies {
		frame, err := protocol.EncodeBinaryEnvelope(protocol.Envelope{
			Type: protocol.EnvPublish, ID: "17", Bin: &protocol.PublishBody{Queue: queue, Body: body},
		})
		if err != nil {
			return err
		}
		frames[i] = frame
	}
	out["protocol.encode_ns_per_msg"] = perItem(time.Since(start), n, time.Nanosecond)
	var wire int64
	start = time.Now()
	for _, frame := range frames {
		if _, err := protocol.DecodeBinaryEnvelope(frame); err != nil {
			return err
		}
		wire += int64(len(frame))
	}
	out["protocol.decode_ns_per_msg"] = perItem(time.Since(start), n, time.Nanosecond)
	out["protocol.wire_bytes_per_task"] = float64(wire) / float64(n)
	out["protocol.wire_amplification"] = float64(wire) / float64(in.userBytes)
	return nil
}

// newProbeEngine is the engine cmd/gc-endpoint builds: a local provider with
// four workers running the builtin registry.
func newProbeEngine(dir string, objects endpoint.ObjectFetcher) (*engine.Engine, error) {
	runner := endpoint.NewRunner(registry.Builtins(), shellfn.Options{SandboxRoot: dir}, objects)
	return engine.New(engine.Config{
		Provider: provider.NewLocal(4), Run: runner,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
	})
}

func probeEngine(in *probeInput, dir string, out map[string]float64) error {
	store, err := in.blobStore()
	if err != nil {
		return err
	}
	eng, err := newProbeEngine(dir, store)
	if err != nil {
		return err
	}
	if err := eng.Start(); err != nil {
		return err
	}
	defer eng.Stop()
	start := time.Now()
	err = in.batches(func(lo, hi int) error {
		if errs := eng.SubmitBatch(in.tasks[lo:hi]); errors.Join(errs...) != nil {
			return errors.Join(errs...)
		}
		for i := lo; i < hi; i++ {
			select {
			case res := <-eng.Results():
				if res.State != protocol.StateSuccess {
					return fmt.Errorf("engine probe: task failed: %s", res.Error)
				}
			case <-time.After(10 * time.Second):
				return errors.New("engine probe: no result")
			}
		}
		return nil
	})
	out["engine.dispatch_us_per_task"] = perItem(time.Since(start), len(in.tasks), time.Microsecond)
	return err
}

func probeAgent(in *probeInput, dir string, out map[string]float64) error {
	store, err := in.blobStore()
	if err != nil {
		return err
	}
	eng, err := newProbeEngine(dir, store)
	if err != nil {
		return err
	}
	b := broker.New()
	defer b.Close()
	conn := broker.LocalConn(b)
	epID := in.tasks[0].EndpointID
	taskQ, resultQ := webservice.TaskQueue(epID), webservice.ResultQueue(epID)
	for _, q := range []string{taskQ, resultQ} {
		if err := conn.Declare(q); err != nil {
			return err
		}
	}
	agent, err := endpoint.New(endpoint.Config{
		EndpointID: epID, Conn: conn, Engine: eng, Objects: store,
		Spill: store, SpillThreshold: serialize.DefaultInlineThreshold,
	})
	if err != nil {
		return err
	}
	if err := agent.Start(); err != nil {
		return err
	}
	defer agent.Stop()
	sub, err := conn.Subscribe(resultQ, 256)
	if err != nil {
		return err
	}
	defer sub.Cancel()
	start := time.Now()
	err = in.batches(func(lo, hi int) error {
		return broker.PublishBatchOn(conn, taskQ, in.bodies[lo:hi], nil)
	})
	if err != nil {
		return err
	}
	for got := 0; got < len(in.tasks); got++ {
		select {
		case m, ok := <-sub.Messages():
			if !ok {
				return errors.New("agent probe: result queue closed")
			}
			if err := sub.Ack(m.Tag); err != nil {
				return err
			}
		case <-time.After(10 * time.Second):
			return fmt.Errorf("agent probe: %d of %d results", got, len(in.tasks))
		}
	}
	out["endpoint.agent_us_per_task"] = perItem(time.Since(start), len(in.tasks), time.Microsecond)
	return nil
}

func probeObjectstore(in *probeInput, _ string, out map[string]float64) error {
	for _, k := range []string{"objectstore.put_mb_per_s", "objectstore.get_mb_per_s", "objectstore.dedup_probe_hit_ratio"} {
		out[k] = 0 // a workload without blobs does not exercise the layer
	}
	if len(in.blobs) == 0 {
		return nil
	}
	store := objectstore.New()
	srv, err := objectstore.ServeHTTP(store, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	client := objectstore.NewClient(srv.Addr())
	blobs := in.blobs[:min(len(in.blobs), probeBlobs)]
	keys := make([]string, len(blobs))
	var moved int64
	start := time.Now()
	for i, b := range blobs {
		keys[i] = objectstore.ContentKey(b)
		if err := client.Put(keys[i], b); err != nil {
			return err
		}
		moved += int64(len(b))
	}
	out["objectstore.put_mb_per_s"] = float64(moved) / 1e6 / time.Since(start).Seconds()
	start = time.Now()
	for _, k := range keys {
		if _, err := client.Get(k); err != nil {
			return err
		}
	}
	out["objectstore.get_mb_per_s"] = float64(moved) / 1e6 / time.Since(start).Seconds()

	// The agent's dedup cache (64 MiB, the gc-endpoint default) over the
	// workload's own sequence of blob keys.
	src, err := in.blobStore()
	if err != nil {
		return err
	}
	cache := objectstore.NewDedupCache(src, 64<<20)
	for _, b := range in.blobs {
		if _, err := cache.Get(objectstore.ContentKey(b)); err != nil {
			return err
		}
	}
	hits := float64(cache.Metrics.Counter("dedup_cache_hits").Value())
	out["objectstore.dedup_probe_hit_ratio"] = hits / float64(len(in.blobs))
	return nil
}
