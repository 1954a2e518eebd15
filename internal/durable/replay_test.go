package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
)

// Replay equivalence: a seeded random interleaving of operations runs against
// a live journaled store (or broker), and the state after every operation is
// kept. Then, for every record boundary of the WAL the run left behind — and
// a torn cut inside every record — a copy of that prefix is reopened and must
// rebuild exactly the state the live system had at that point, timestamps
// included. A failure names its seed; replaySeeds lists the ones to run.
var replaySeeds = []int64{1, 2, 3, 4, 5}

// TestMain swallows the recovery summary line each reopen logs: the replay
// tests reopen thousands of cuts.
func TestMain(m *testing.M) {
	obs.SetDefault(obs.NewPipeline(obs.PipelineConfig{}))
	os.Exit(m.Run())
}

func seededUUID(rng *rand.Rand) protocol.UUID {
	return protocol.UUID(fmt.Sprintf("%08x-%04x-%04x-%04x-%012x",
		rng.Uint32(), rng.Intn(1<<16), rng.Intn(1<<16), rng.Intn(1<<16), rng.Int63n(1<<48)))
}

// recordEnds returns the offset just past each record of a one-segment WAL;
// ends[0] is 0, the empty log.
func recordEnds(t *testing.T, walDir string) (string, []byte, []int) {
	t.Helper()
	segs, err := listSegments(walDir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one WAL segment in %s, got %d (%v)", walDir, len(segs), err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{0}
	for off := 0; off+recordHeaderSize <= len(data); {
		off += recordHeaderSize + int(binary.BigEndian.Uint32(data[off+8:off+12]))
		ends = append(ends, off)
	}
	return filepath.Base(segs[0].path), data, ends
}

// eachPrefix calls check(dir, k) for every k-record prefix of the WAL under
// src/walName, once cut cleanly and once with part of record k+1 torn on.
func eachPrefix(t *testing.T, rng *rand.Rand, src, walName string, check func(dir string, k int)) int {
	t.Helper()
	seg, data, ends := recordEnds(t, filepath.Join(src, walName))
	write := func(n int) string {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, walName), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName, seg), data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for k, end := range ends {
		check(write(end), k)
		if k+1 < len(ends) {
			check(write(end+1+rng.Intn(ends[k+1]-end-1)), k)
		}
	}
	return len(ends) - 1
}

// canonStore renders a statestore snapshot with each table sorted, so two
// images of the same state compare equal whatever order the maps iterated in.
func canonStore(t *testing.T, s *statestore.Store) string {
	t.Helper()
	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var tables map[string][]json.RawMessage
	if err := json.Unmarshal(img, &tables); err != nil {
		t.Fatal(err)
	}
	for _, rows := range tables {
		sort.Slice(rows, func(i, j int) bool { return string(rows[i]) < string(rows[j]) })
	}
	out, err := json.Marshal(tables)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestReplayEquivalenceStore(t *testing.T) {
	for _, seed := range replaySeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			replayStore(t, seed)
		})
	}
}

func replayStore(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	d, err := OpenStore(StoreOptions{Dir: dir, SnapshotEvery: -1, noSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// The clock steps between operations, never inside one, so the instant an
	// operation is journaled at is the instant it applies at.
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	d.State.SetClock(func() time.Time { return now })

	eps := []protocol.UUID{seededUUID(rng), seededUUID(rng)}
	var ids []protocol.UUID
	someIDs := func() []protocol.UUID {
		out := make([]protocol.UUID, 1+rng.Intn(4))
		for i := range out {
			if len(ids) == 0 || rng.Intn(8) == 0 {
				out[i] = seededUUID(rng) // unknown task
			} else {
				out[i] = ids[rng.Intn(len(ids))]
			}
		}
		return out
	}
	newTasks := func() []protocol.Task {
		tasks := make([]protocol.Task, 1+rng.Intn(4))
		for i := range tasks {
			tasks[i] = protocol.Task{
				ID: seededUUID(rng), EndpointID: eps[rng.Intn(len(eps))], Kind: protocol.KindPython,
				Payload: []byte(fmt.Sprintf(`{"n":%d}`, rng.Intn(1000))), Submitted: now,
			}
			if len(ids) > 0 && rng.Intn(10) == 0 {
				tasks[i].ID = ids[rng.Intn(len(ids))] // duplicate
			}
			ids = append(ids, tasks[i].ID)
		}
		return tasks
	}
	bodiesOf := func(n int, item func(int) any) [][]byte {
		if rng.Intn(2) == 0 {
			return nil // let the journal marshal
		}
		bodies := make([][]byte, n)
		for i := range bodies {
			bodies[i], _ = json.Marshal(item(i))
		}
		return bodies
	}
	states := []protocol.TaskState{
		protocol.StateWaiting, protocol.StateDelivered, protocol.StateRunning,
		protocol.StateCancelled, protocol.StateFailed, protocol.StateSuccess,
	}
	terminal := []protocol.TaskState{protocol.StateSuccess, protocol.StateFailed}

	want := map[uint64]string{0: canonStore(t, d.State)}
	const ops = 160
	for i := 0; i < ops; i++ {
		now = now.Add(time.Duration(1+rng.Intn(5000)) * time.Millisecond)
		switch op := rng.Intn(14); op {
		case 0:
			_ = d.State.PutFunction(statestore.FunctionRecord{ID: seededUUID(rng), Owner: "alice", Kind: protocol.KindPython, Definition: []byte("def")})
		case 1:
			_ = d.State.UpsertEndpoint(statestore.EndpointRecord{ID: eps[rng.Intn(len(eps))], Name: fmt.Sprint("ep", i), Status: statestore.EndpointOnline})
		case 2:
			_ = d.State.SetEndpointStatus(eps[rng.Intn(len(eps))], statestore.EndpointOffline)
		case 3, 4, 5:
			tasks := newTasks()
			_ = d.State.AdmitTasks(tasks, bodiesOf(len(tasks), func(i int) any { return tasks[i] }))
		case 6:
			_ = d.State.CreateTasks(newTasks())
		case 7:
			_ = d.State.TransitionTasks(someIDs(), states[rng.Intn(len(states))])
		case 8:
			_ = d.State.TransitionTask(someIDs()[0], protocol.StateCancelled)
		case 9, 10:
			tids := someIDs()
			if rng.Intn(4) == 0 {
				tids = append(tids, tids[0]) // duplicate result in one batch
			}
			results := make([]protocol.Result, len(tids))
			for i, id := range tids {
				results[i] = protocol.Result{
					TaskID: id, State: terminal[rng.Intn(2)], Output: []byte(fmt.Sprint("out", rng.Intn(100))),
					EndpointID: eps[0], Completed: now,
				}
			}
			d.State.CompleteEncoded(results, bodiesOf(len(results), func(i int) any { return results[i] }))
		case 11:
			_ = d.State.CompleteTask(protocol.Result{TaskID: someIDs()[0], State: protocol.StateFailed, Error: "boom"})
		case 12:
			d.State.PurgeTasksBefore(now.Add(-time.Duration(rng.Intn(60)) * time.Second))
		case 13:
			if rng.Intn(3) == 0 {
				d.State.PurgeIdempotencyBefore(now.Add(-time.Duration(rng.Intn(60)) * time.Second))
			} else {
				_ = d.State.PutIdempotency("alice", fmt.Sprint("key", rng.Intn(6)), someIDs())
			}
		}
		want[d.WAL().LastLSN()] = canonStore(t, d.State)
	}

	n := eachPrefix(t, rng, dir, storeWALDir, func(dir string, k int) {
		r, err := OpenStore(StoreOptions{Dir: dir, SnapshotEvery: -1, noSync: true})
		if err != nil {
			t.Fatalf("seed %d: reopen at %d records: %v", seed, k, err)
		}
		defer r.WAL().Close()
		if got := canonStore(t, r.State); got != want[uint64(k)] {
			t.Fatalf("seed %d: replay of %d records diverges from the live store\n got %s\nwant %s", seed, k, got, want[uint64(k)])
		}
	})
	if n < ops/2 {
		t.Fatalf("seed %d: only %d records journaled by %d operations", seed, n, ops)
	}
	_ = d.WAL().Close()
}

// canonBroker renders a broker image as queue -> messages sorted by ID: the
// live image lists delivered-but-unacked messages first, a replayed one does
// not know which those were.
func canonBroker(img broker.Image) string {
	type msg struct {
		ID   uint64
		Body string
	}
	queues := make(map[string][]msg)
	for _, q := range img.Queues {
		msgs := []msg{}
		for i, body := range q.Messages {
			msgs = append(msgs, msg{ID: q.IDs[i], Body: string(body)})
		}
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].ID < msgs[j].ID })
		queues[q.Name] = msgs
	}
	out, _ := json.Marshal(struct {
		NextID uint64
		Queues map[string][]msg
	}{img.NextID, queues})
	return string(out)
}

func TestReplayEquivalenceBroker(t *testing.T) {
	for _, seed := range replaySeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			replayBroker(t, seed)
		})
	}
}

func replayBroker(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	bl, err := OpenBroker(BrokerOptions{Dir: dir, SnapshotEvery: -1, noSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer bl.B.Close()
	names := []string{"tasks.a", "results.a", "results.group.g", "tasks.b"}
	consumers := make(map[string]*broker.Consumer)

	// mark runs after every broker call, each of which journals at most one
	// record (acks at once, not after ackWindow, so the log keeps pace with
	// the live broker).
	want := make(map[uint64]string)
	mark := func() {
		bl.journalHeldAcks()
		want[bl.WAL().LastLSN()] = canonBroker(bl.B.SnapshotImage())
	}
	mark()
	const ops = 200
	for i := 0; i < ops; i++ {
		q := names[rng.Intn(len(names))]
		switch op := rng.Intn(10); {
		case op == 0:
			_ = bl.B.Declare(q)
		case op == 1 && rng.Intn(3) == 0:
			_ = bl.B.Delete(q) // closes its consumer
			delete(consumers, q)
		case op <= 5:
			_ = bl.B.Declare(q)
			mark()
			bodies := make([][]byte, 1+rng.Intn(4))
			for j := range bodies {
				bodies[j] = make([]byte, rng.Intn(40))
				rng.Read(bodies[j])
			}
			if err := bl.B.PublishBatch(q, bodies, nil); err != nil {
				t.Fatal(err)
			}
		default:
			// Ack some of what the queue has delivered, singly or batched.
			c := consumers[q]
			if c == nil {
				if c, err = bl.B.Consume(q, 1<<10); err != nil {
					continue // not declared yet
				}
				consumers[q] = c
			}
			var tags []uint64
		take:
			for n := rng.Intn(5); n > 0; n-- {
				select {
				case m := <-c.Messages():
					tags = append(tags, m.Tag)
				default:
					break take
				}
			}
			if len(tags) == 1 {
				_ = c.Ack(tags[0])
			} else if len(tags) > 1 {
				_ = c.Ack(tags...)
			}
		}
		mark()
	}
	if err := bl.WAL().Sync(); err != nil { // declares, deletes and acks are async appends
		t.Fatal(err)
	}

	n := eachPrefix(t, rng, dir, brokerWALDir, func(dir string, k int) {
		r, err := OpenBroker(BrokerOptions{Dir: dir, SnapshotEvery: -1, noSync: true})
		if err != nil {
			t.Fatalf("seed %d: reopen at %d records: %v", seed, k, err)
		}
		defer r.WAL().Close()
		defer r.B.Close()
		if got := canonBroker(r.B.SnapshotImage()); got != want[uint64(k)] {
			t.Fatalf("seed %d: replay of %d records diverges from the live broker\n got %s\nwant %s", seed, k, got, want[uint64(k)])
		}
	})
	if n < ops/2 {
		t.Fatalf("seed %d: only %d records journaled by %d operations", seed, n, ops)
	}
	_ = bl.WAL().Close()
}
