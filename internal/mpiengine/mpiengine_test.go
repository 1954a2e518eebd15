package mpiengine

import (
	"errors"

	"strings"
	"sync"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/scheduler"
)

func mpiTask(t *testing.T, command string, res protocol.ResourceSpec) protocol.Task {
	t.Helper()
	payload, err := protocol.EncodePayload(protocol.ShellSpec{Command: command})
	if err != nil {
		t.Fatal(err)
	}
	return protocol.Task{
		ID: protocol.NewUUID(), Kind: protocol.KindMPI,
		Payload: payload, Resources: res,
	}
}

func newMPIEngine(t *testing.T, clusterNodes, blockNodes int, strategy Strategy) (*Engine, func()) {
	t.Helper()
	sched := scheduler.SimpleCluster(clusterNodes)
	prov, err := provider.NewBatch(provider.BatchConfig{Scheduler: sched, NodesPerBlock: blockNodes})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Provider: prov, Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	return eng, func() {
		eng.Stop()
		sched.Close()
	}
}

func shellResultOf(t *testing.T, r protocol.Result) protocol.ShellResult {
	t.Helper()
	if r.State != protocol.StateSuccess {
		t.Fatalf("result state %s: %s", r.State, r.Error)
	}
	var sr protocol.ShellResult
	if err := protocol.DecodePayload(r.Output, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func TestHostnameAcrossNodes(t *testing.T) {
	// Paper Listing 6/7: 2 nodes, 1..2 ranks per node.
	eng, cleanup := newMPIEngine(t, 2, 2, FIFO)
	defer cleanup()
	for _, rpn := range []int{1, 2} {
		task := mpiTask(t, "echo $GC_NODE", protocol.ResourceSpec{NumNodes: 2, RanksPerNode: rpn})
		if err := eng.Submit(task); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-eng.Results():
			sr := shellResultOf(t, r)
			lines := strings.Split(sr.Stdout, "\n")
			if len(lines) != 2*rpn {
				t.Errorf("rpn=%d: %d lines, want %d: %q", rpn, len(lines), 2*rpn, sr.Stdout)
			}
			hosts := map[string]int{}
			for _, l := range lines {
				hosts[l]++
			}
			if len(hosts) != 2 {
				t.Errorf("rpn=%d: hosts %v, want 2 distinct", rpn, hosts)
			}
			for h, c := range hosts {
				if c != rpn {
					t.Errorf("rpn=%d: host %s ran %d ranks", rpn, h, c)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatal("no result")
		}
	}
}

func TestPrefixResolution(t *testing.T) {
	eng, cleanup := newMPIEngine(t, 2, 2, FIFO)
	defer cleanup()
	task := mpiTask(t, "$PARSL_MPI_PREFIX echo ok", protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 1})
	eng.Submit(task)
	r := <-eng.Results()
	sr := shellResultOf(t, r)
	if !strings.HasPrefix(sr.Cmd, "mpiexec -n 2 -host ") {
		t.Errorf("cmd = %q, want launcher prefix resolved", sr.Cmd)
	}
	if strings.Contains(sr.Cmd, "$PARSL_MPI_PREFIX") {
		t.Errorf("cmd = %q still contains placeholder", sr.Cmd)
	}
	if sr.Stdout != "ok\nok" {
		t.Errorf("stdout = %q", sr.Stdout)
	}
}

func TestConcurrentAppsShareBlock(t *testing.T) {
	// An 4-node block should run two 2-node apps concurrently: total time
	// well under serial execution.
	eng, cleanup := newMPIEngine(t, 4, 4, FIFO)
	defer cleanup()
	const sleep = "0.2"
	start := time.Now()
	for i := 0; i < 2; i++ {
		eng.Submit(mpiTask(t, "sleep "+sleep, protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 1}))
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-eng.Results():
			shellResultOf(t, r)
		case <-time.After(10 * time.Second):
			t.Fatal("missing result")
		}
	}
	if elapsed := time.Since(start); elapsed > 350*time.Millisecond {
		t.Errorf("two 200ms apps took %s; expected concurrent execution", elapsed)
	}
}

func TestQueueWhenFull(t *testing.T) {
	// 2-node block, two 2-node apps: must serialize, both complete.
	eng, cleanup := newMPIEngine(t, 2, 2, FIFO)
	defer cleanup()
	start := time.Now()
	for i := 0; i < 2; i++ {
		eng.Submit(mpiTask(t, "sleep 0.1", protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 1}))
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-eng.Results():
			shellResultOf(t, r)
		case <-time.After(10 * time.Second):
			t.Fatal("missing result")
		}
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("two serialized 100ms apps took %s; expected >= 200ms", elapsed)
	}
}

func TestRejectionPaths(t *testing.T) {
	eng, cleanup := newMPIEngine(t, 2, 2, FIFO)
	defer cleanup()
	// Wrong kind.
	if err := eng.Submit(protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindShell}); !errors.Is(err, ErrNotMPI) {
		t.Errorf("shell kind = %v", err)
	}
	// Too many nodes for the block.
	task := mpiTask(t, "true", protocol.ResourceSpec{NumNodes: 8})
	if err := eng.Submit(task); !errors.Is(err, ErrTooBig) {
		t.Errorf("oversized = %v", err)
	}
	// Bad payload.
	bad := protocol.Task{ID: protocol.NewUUID(), Kind: protocol.KindMPI, Payload: []byte("{")}
	if err := eng.Submit(bad); err == nil {
		t.Error("bad payload accepted")
	}
	// Inconsistent resource spec.
	incons := mpiTask(t, "true", protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 2, NumRanks: 3})
	if err := eng.Submit(incons); err == nil {
		t.Error("inconsistent spec accepted")
	}
}

func TestSubmitBeforeStartAndAfterStop(t *testing.T) {
	sched := scheduler.SimpleCluster(2)
	defer sched.Close()
	prov, _ := provider.NewBatch(provider.BatchConfig{Scheduler: sched, NodesPerBlock: 2})
	eng, _ := New(Config{Provider: prov})
	task := mpiTask(t, "true", protocol.ResourceSpec{NumNodes: 1})
	if err := eng.Submit(task); !errors.Is(err, ErrNotStarted) {
		t.Errorf("before start = %v", err)
	}
	eng.Start()
	eng.Stop()
	if err := eng.Submit(task); !errors.Is(err, ErrStopped) {
		t.Errorf("after stop = %v", err)
	}
}

func TestSmallestFirstPacksAroundWideApp(t *testing.T) {
	// Occupy 3 of 4 nodes; queue a 4-node app then a 1-node app. With
	// smallest-first, the 1-node app runs before the wide one.
	eng, cleanup := newMPIEngine(t, 4, 4, SmallestFirst)
	defer cleanup()
	eng.Submit(mpiTask(t, "sleep 0.3", protocol.ResourceSpec{NumNodes: 3, RanksPerNode: 1}))
	time.Sleep(50 * time.Millisecond) // let it start
	eng.Submit(mpiTask(t, "echo wide", protocol.ResourceSpec{NumNodes: 4, RanksPerNode: 1}))
	eng.Submit(mpiTask(t, "echo narrow", protocol.ResourceSpec{NumNodes: 1, RanksPerNode: 1}))

	var order []string
	for i := 0; i < 3; i++ {
		select {
		case r := <-eng.Results():
			sr := shellResultOf(t, r)
			first := strings.SplitN(sr.Stdout, "\n", 2)[0]
			order = append(order, first)
		case <-time.After(10 * time.Second):
			t.Fatal("missing results")
		}
	}
	// narrow must complete before wide.
	ni, wi := -1, -1
	for i, s := range order {
		switch s {
		case "narrow":
			ni = i
		case "wide":
			wi = i
		}
	}
	if ni == -1 || wi == -1 || ni > wi {
		t.Errorf("completion order %v, want narrow before wide", order)
	}
}

func TestFIFOHeadOfLineBlocks(t *testing.T) {
	// Same setup as above but FIFO: the 1-node app must NOT overtake the
	// 4-node head-of-line app.
	eng, cleanup := newMPIEngine(t, 4, 4, FIFO)
	defer cleanup()
	eng.Submit(mpiTask(t, "sleep 0.3", protocol.ResourceSpec{NumNodes: 3, RanksPerNode: 1}))
	time.Sleep(50 * time.Millisecond)
	eng.Submit(mpiTask(t, "echo wide", protocol.ResourceSpec{NumNodes: 4, RanksPerNode: 1}))
	eng.Submit(mpiTask(t, "echo narrow", protocol.ResourceSpec{NumNodes: 1, RanksPerNode: 1}))
	var order []string
	for i := 0; i < 3; i++ {
		r := <-eng.Results()
		sr := shellResultOf(t, r)
		order = append(order, strings.SplitN(sr.Stdout, "\n", 2)[0])
	}
	wi, ni := -1, -1
	for i, s := range order {
		switch s {
		case "wide":
			wi = i
		case "narrow":
			ni = i
		}
	}
	if wi == -1 || ni == -1 || wi > ni {
		t.Errorf("completion order %v, want wide before narrow under FIFO", order)
	}
}

func TestLargestFirstPrefersWideApps(t *testing.T) {
	// Free the 4-node block while a 1-node and a 4-node app wait; under
	// largest-first the wide app runs first.
	eng, cleanup := newMPIEngine(t, 4, 4, LargestFirst)
	defer cleanup()
	eng.Submit(mpiTask(t, "sleep 0.2", protocol.ResourceSpec{NumNodes: 4, RanksPerNode: 1}))
	time.Sleep(50 * time.Millisecond) // running: block fully busy
	eng.Submit(mpiTask(t, "echo narrow", protocol.ResourceSpec{NumNodes: 1, RanksPerNode: 1}))
	eng.Submit(mpiTask(t, "echo wide", protocol.ResourceSpec{NumNodes: 4, RanksPerNode: 1}))
	var order []string
	for i := 0; i < 3; i++ {
		r := <-eng.Results()
		sr := shellResultOf(t, r)
		order = append(order, strings.SplitN(sr.Stdout, "\n", 2)[0])
	}
	wi, ni := -1, -1
	for i, s := range order {
		switch s {
		case "wide":
			wi = i
		case "narrow":
			ni = i
		}
	}
	if wi == -1 || ni == -1 || wi > ni {
		t.Errorf("order = %v, want wide before narrow under largest-first", order)
	}
}

func TestNoNodeDoubleBookingUnderLoad(t *testing.T) {
	eng, cleanup := newMPIEngine(t, 8, 8, SmallestFirst)
	defer cleanup()
	// Each app writes its node set; verify no two concurrent apps shared
	// a node by checking engine stats never go negative and all complete.
	const apps = 20
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < apps; i++ {
			r := <-eng.Results()
			if r.State != protocol.StateSuccess {
				t.Errorf("app failed: %s", r.Error)
			}
		}
	}()
	for i := 0; i < apps; i++ {
		nodes := 1 + i%4
		if err := eng.Submit(mpiTask(t, "sleep 0.02", protocol.ResourceSpec{NumNodes: nodes, RanksPerNode: 1})); err != nil {
			t.Fatal(err)
		}
		s := eng.Stats()
		if s.FreeNodes < 0 || s.FreeNodes > s.TotalNodes {
			t.Fatalf("stats out of range: %+v", s)
		}
	}
	wg.Wait()
	s := eng.Stats()
	if s.AppsCompleted != apps {
		t.Errorf("completed = %d, want %d", s.AppsCompleted, apps)
	}
}

func TestStopFailsQueuedApps(t *testing.T) {
	eng, cleanup := newMPIEngine(t, 2, 2, FIFO)
	// Occupy the block, then queue extras.
	eng.Submit(mpiTask(t, "sleep 0.2", protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 1}))
	time.Sleep(30 * time.Millisecond)
	for i := 0; i < 3; i++ {
		eng.Submit(mpiTask(t, "echo queued", protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 1}))
	}
	go cleanup()
	got := 0
	for range eng.Results() {
		got++
	}
	if got != 4 {
		t.Errorf("results = %d, want 4 (1 running + 3 failed-on-stop)", got)
	}
}

// TestStopWithoutReader: Stop returns while more queued applications than
// the results buffer holds are waiting and nobody reads; a reader that comes
// afterwards gets the running app's result and every queued failure, then
// the close.
func TestStopWithoutReader(t *testing.T) {
	eng, cleanup := newMPIEngine(t, 2, 2, FIFO)
	// Occupies the block until Stop releases it.
	eng.Submit(mpiTask(t, "sleep 30", protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 1}))
	time.Sleep(30 * time.Millisecond)
	const queued = 2 * resultBuffer
	for i := 0; i < queued; i++ {
		if err := eng.Submit(mpiTask(t, "echo queued", protocol.ResourceSpec{NumNodes: 2, RanksPerNode: 1})); err != nil {
			t.Fatal(err)
		}
	}
	stopped := make(chan struct{})
	go func() {
		cleanup()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatalf("Stop hung with %d queued apps and no reader", queued)
	}
	results, failed := 0, 0
	for r := range eng.Results() {
		results++
		if r.State == protocol.StateFailed {
			failed++
		}
	}
	if results != queued+1 || failed < queued {
		t.Errorf("%d results (%d failures) before the close, want %d (at least %d failures)", results, failed, queued+1, queued)
	}
}
