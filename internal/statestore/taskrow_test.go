package statestore

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"globuscompute/internal/protocol"
	"globuscompute/internal/trace"
)

// admitAndComplete admits n add-shaped tasks on ep in batches of 256 and
// completes each with a 7-byte result. Every task gets freshly allocated
// FunctionID and GroupID strings of the same value, as the submit path's
// body decode hands the store one copy per task.
func admitAndComplete(t *testing.T, s *Store, n int, ep, fn, group protocol.UUID) {
	t.Helper()
	const batch = 256
	tasks := make([]protocol.Task, 0, batch)
	results := make([]protocol.Result, 0, batch)
	for lo := 0; lo < n; lo += batch {
		tasks, results = tasks[:0], results[:0]
		for i := lo; i < n && i < lo+batch; i++ {
			task := protocol.Task{
				ID: protocol.NewUUID(), EndpointID: ep, Kind: protocol.KindPython,
				FunctionID:   protocol.UUID(strings.Clone(string(fn))),
				GroupID:      protocol.UUID(strings.Clone(string(group))),
				UserIdentity: "user", Submitted: time.Now(),
			}
			tasks = append(tasks, task)
			results = append(results, protocol.Result{TaskID: task.ID, State: protocol.StateSuccess, Output: []byte("4242424")})
		}
		if err := s.AdmitTasks(tasks, nil); err != nil {
			t.Fatal(err)
		}
		for i, err := range s.CompleteTasks(results) {
			if err != nil {
				t.Fatalf("complete %s: %v", results[i].TaskID, err)
			}
		}
	}
}

// TestTaskTableRowBytes pins the packed row: 100k finished add tasks shaped
// like the sat-mem workload's grow the live heap by at most 200 B and 1.1
// heap objects per row.
func TestTaskTableRowBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes and object counts")
	}
	if size := unsafe.Sizeof(taskRow{}); size != 80 {
		t.Errorf("taskRow is %d B, want 80", size)
	}
	const n = 100_000
	s := New()
	ep, fn, group := protocol.NewUUID(), protocol.NewUUID(), protocol.NewUUID()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	admitAndComplete(t, s, n, ep, fn, group)
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytesPerRow := float64(int64(after.HeapInuse)-int64(before.HeapInuse)) / n
	objsPerRow := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / n
	t.Logf("%.0f B and %.2f heap objects per finished row", bytesPerRow, objsPerRow)
	if bytesPerRow > 200 || objsPerRow > 1.1 {
		t.Errorf("%.0f B and %.2f objects per row, want <= 200 B and <= 1.1 (the TaskRecord table: 601 B, 4.5 objects)",
			bytesPerRow, objsPerRow)
	}
	if got := s.CountTasksByState()[protocol.StateSuccess]; got != n {
		t.Fatalf("success = %d, want %d", got, n)
	}
	runtime.KeepAlive(s)
}

// TestPurgeManyRowsOneEndpoint: the retention purge of 100k finished rows of
// one endpoint is linear. It used to rescan the endpoint's whole task list
// per purged row (~5x10^9 comparisons here, tens of seconds). The time limit
// is not checked under the race detector, whose slowdown is not the purge's.
func TestPurgeManyRowsOneEndpoint(t *testing.T) {
	const n = 100_000
	s := New()
	admitAndComplete(t, s, n, protocol.NewUUID(), protocol.NewUUID(), protocol.NewUUID())
	start := time.Now()
	if got := s.PurgeTasksBefore(time.Now().Add(time.Hour)); got != n {
		t.Fatalf("purged %d rows, want %d", got, n)
	}
	if took := time.Since(start); took > time.Second && !raceEnabled {
		t.Errorf("purging %d rows of one endpoint took %v, want < 1s", n, took)
	}
	if got := s.CountTasks(); got != 0 {
		t.Fatalf("%d rows left after the purge", got)
	}
}

// interned reports whether any shard's intern table holds s.
func interned(s *Store, str string) bool {
	for si := range s.tasks {
		if _, ok := s.tasks[si].strs.handles[str]; ok {
			return true
		}
	}
	return false
}

// TestPurgeReleasesGroupStrings: purging every row of a group frees the
// group's intern entries and the per-task function IDs its rows named, and
// leaves the strings a remaining row still names.
func TestPurgeReleasesGroupStrings(t *testing.T) {
	s := New()
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	s.SetClock(func() time.Time { return base })
	ep, gone, kept := protocol.NewUUID(), protocol.NewUUID(), protocol.NewUUID()
	var goneTasks []protocol.Task
	var results []protocol.Result
	for i := 0; i < 200; i++ {
		task := newTask(ep)
		task.GroupID = gone
		goneTasks = append(goneTasks, task)
		results = append(results, protocol.Result{TaskID: task.ID, State: protocol.StateSuccess, Output: []byte("1")})
	}
	keptTask := newTask(ep)
	keptTask.GroupID = kept
	if err := s.AdmitTasks(append(goneTasks, keptTask), nil); err != nil {
		t.Fatal(err)
	}
	for _, err := range s.CompleteTasks(results) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !interned(s, string(gone)) || !interned(s, string(goneTasks[0].FunctionID)) {
		t.Fatal("admitted rows' strings are not interned")
	}
	if n := s.PurgeTasksBefore(base.Add(time.Second)); n != len(goneTasks) {
		t.Fatalf("purged %d, want %d", n, len(goneTasks))
	}
	if interned(s, string(gone)) {
		t.Error("purged group still interned")
	}
	for _, task := range goneTasks {
		if interned(s, string(task.FunctionID)) {
			t.Fatalf("purged task's function %s still interned", task.FunctionID)
		}
	}
	for _, str := range []protocol.UUID{kept, keptTask.FunctionID, ep} {
		if !interned(s, string(str)) {
			t.Errorf("%s, named by a remaining row, was released", str)
		}
	}
	rec, err := s.GetTask(keptTask.ID)
	if err != nil || rec.Task.GroupID != kept || rec.Task.EndpointID != ep {
		t.Fatalf("remaining row = %+v, %v", rec.Task, err)
	}
	// Released handles and slots are reused, and read back as the new row's.
	again := newTask(ep)
	again.GroupID = gone
	if err := s.CreateTask(again); err != nil {
		t.Fatal(err)
	}
	if rec, err := s.GetTask(again.ID); err != nil || rec.Task.GroupID != gone || rec.Task.FunctionID != again.FunctionID {
		t.Fatalf("row on reused slots = %+v, %v", rec.Task, err)
	}
}

// TestTaskRowRoundTrip: every field a row packs — codes, handles, times and
// each tail field — reads back as it went in, live and after a snapshot.
func TestTaskRowRoundTrip(t *testing.T) {
	at := time.Date(2026, 5, 6, 7, 8, 9, 10, time.UTC)
	s := New()
	s.SetClock(func() time.Time { return at })
	task := protocol.Task{
		ID: protocol.NewUUID(), FunctionID: protocol.NewUUID(), EndpointID: protocol.NewUUID(),
		Kind: "custom", PayloadRef: "payload-ref",
		Resources:    protocol.ResourceSpec{NumNodes: 3, RanksPerNode: 4, NumRanks: 1 << 40},
		UserIdentity: "alice", GroupID: protocol.NewUUID(), RoutingGroup: protocol.NewUUID(),
		Rerouted: 2, Submitted: at.Add(-time.Second), Attempts: -1,
		Trace: trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()},
	}
	plain := newTask(task.EndpointID)
	if err := s.CreateTasks([]protocol.Task{task, plain}); err != nil {
		t.Fatal(err)
	}
	s.TransitionTask(task.ID, protocol.StateDelivered)
	done, errs := s.CompleteEncoded([]protocol.Result{{TaskID: task.ID, State: protocol.StateFailed,
		Output: []byte("out"), OutputRef: "result-ref", Error: "boom"}}, nil)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if c := done[0]; !c.Created.Equal(at) || c.UserIdentity != "alice" || c.NumNodes != 3 || c.GroupID != task.GroupID {
		t.Errorf("completion = %+v", c)
	}
	check := func(s *Store, when string) {
		t.Helper()
		rec, err := s.GetTask(task.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, want := rec.Task, task
		if !got.Submitted.Equal(want.Submitted) || got.Trace != want.Trace {
			t.Errorf("%s: submitted %v trace %+v", when, got.Submitted, got.Trace)
		}
		got.Submitted, got.Trace, want.Submitted, want.Trace = time.Time{}, trace.Context{}, time.Time{}, trace.Context{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: task\n got %+v\nwant %+v", when, got, want)
		}
		if rec.State != protocol.StateFailed || string(rec.Result) != "out" || rec.ResultRef != "result-ref" ||
			rec.Error != "boom" || !rec.Created.Equal(at) || !rec.Updated.Equal(at) || !rec.Completed.Equal(at) {
			t.Errorf("%s: record %+v", when, rec)
		}
		p, err := s.GetTask(plain.ID)
		if err != nil || p.Task.PayloadRef != "" || p.Task.Trace.Valid() || p.Result != nil || !p.Completed.IsZero() ||
			p.Task.Kind != protocol.KindPython || p.State != protocol.StateReceived {
			t.Errorf("%s: plain row %+v, %v", when, p, err)
		}
	}
	check(s, "live")
	if err := s.PutFunction(FunctionRecord{ID: task.FunctionID, Kind: protocol.KindPython}); err != nil {
		t.Fatal(err)
	}
	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The streamed image is byte for byte what json.Marshal writes for the
	// same tables.
	var snap snapshot
	if err := json.Unmarshal(img, &snap); err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(snap); !bytes.Equal(img, want) {
		t.Errorf("snapshot image\n got %s\nwant %s", img, want)
	}
	s2 := New()
	if err := s2.Restore(img); err != nil {
		t.Fatal(err)
	}
	check(s2, "restored")
	if ids := s2.ListTasksByEndpoint(task.EndpointID); len(ids) != 1 || ids[0] != plain.ID {
		t.Errorf("in-flight index after restore = %v, want [%s]", ids, plain.ID)
	}
}

// TestTaskTableConcurrentUse: writers admitting and completing, readers of
// every kind and a purger race on the shards; afterwards no task is in
// flight, and purging the rest leaves every intern table and in-flight index
// empty.
func TestTaskTableConcurrentUse(t *testing.T) {
	s := New()
	eps := []protocol.UUID{protocol.NewUUID(), protocol.NewUUID()}
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				task := newTask(eps[i%2])
				task.GroupID = eps[w%2] // any shared string
				task.PayloadRef = "ref"
				if err := s.AdmitTasks([]protocol.Task{task}, nil); err != nil {
					t.Error(err)
					return
				}
				if err := s.CompleteTask(protocol.Result{TaskID: task.ID, State: protocol.StateSuccess, Output: []byte("x")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range s.ListTasksByEndpoint(eps[0]) {
				s.GetTaskRecords([]protocol.UUID{id})
			}
			if _, err := s.Snapshot(); err != nil {
				t.Error(err)
			}
			s.ObjectRefs()
			s.CountTasksByState()
			s.PurgeTasksBefore(time.Now().Add(-time.Millisecond))
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	for _, ep := range eps {
		if ids := s.ListTasksByEndpoint(ep); len(ids) != 0 {
			t.Errorf("%d tasks of a drained endpoint still in flight", len(ids))
		}
	}
	s.PurgeTasksBefore(time.Now().Add(time.Hour))
	for si := range s.tasks {
		sh := &s.tasks[si]
		if len(sh.slots) != 0 || len(sh.strs.handles) != 0 || len(sh.inflight) != 0 || sh.counts != [numStates]int{} {
			t.Errorf("shard %d after purging everything: %d rows, %d strings, %d in-flight endpoints, counts %v",
				si, len(sh.slots), len(sh.strs.handles), len(sh.inflight), sh.counts)
		}
	}
}

// TestGroupKeysAllocs: bucketing a batch by shard costs the same two
// allocations (the keys and one backing slice) at 1 task and at 256, and
// keeps each bucket in batch order without its bad IDs.
func TestGroupKeysAllocs(t *testing.T) {
	for _, n := range []int{1, 256} {
		ids := make([]protocol.UUID, n)
		for i := range ids {
			ids[i] = protocol.NewUUID()
		}
		ids[n/2] = "not-a-uuid"
		allocs := testing.AllocsPerRun(50, func() {
			groupKeys(n, func(i int) protocol.UUID { return ids[i] }, func(int) {})
		})
		if allocs > 2 {
			t.Errorf("%d tasks: %.0f allocations, want 2", n, allocs)
		}
		var bad []int
		keys, groups := groupKeys(n, func(i int) protocol.UUID { return ids[i] }, func(i int) { bad = append(bad, i) })
		seen := 0
		for si, g := range groups {
			for j, i := range g {
				if j > 0 && g[j-1] >= i || shardOf(keys[i]) != si || !ids[i].Valid() {
					t.Fatalf("%d tasks: shard %d holds %v", n, si, g)
				}
			}
			seen += len(g)
		}
		if seen != n-1 || len(bad) != 1 || bad[0] != n/2 {
			t.Errorf("%d tasks: %d bucketed, bad %v", n, seen, bad)
		}
	}
}
