package webservice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
)

// spillAgent is an endpoint agent on the pass-by-reference data plane the
// shipped agent uses: payload references are fetched from, and outputs
// spilled to, the object store's HTTP front end (HEAD dedup probe, streamed
// PUT). The output is the payload with a marker appended, so results are
// objects of their own. dangling counts payload references that did not
// resolve.
func (f *fixture) spillAgent(t *testing.T, ep protocol.UUID, objects *objectstore.Client, dangling *atomic.Int64) {
	t.Helper()
	c, err := f.brk.Consume(TaskQueue(ep), 16)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for m := range c.Messages() {
			var task protocol.Task
			if err := json.Unmarshal(m.Body, &task); err != nil {
				c.Ack(m.Tag)
				continue
			}
			res := protocol.Result{
				TaskID: task.ID, State: protocol.StateSuccess, EndpointID: ep,
				Started: time.Now(), Completed: time.Now(),
			}
			payload, err := objects.Get(task.PayloadRef)
			if err == nil {
				res.OutputRef, err = objects.PutContent(resultOf(payload))
			}
			if err != nil {
				dangling.Add(1)
				res.State, res.Error = protocol.StateFailed, err.Error()
			}
			body, _ := json.Marshal(res)
			f.brk.Publish(ResultQueue(ep), body)
			c.Ack(m.Tag)
		}
	}()
	t.Cleanup(c.Close)
}

func resultOf(payload []byte) []byte { return append(append([]byte(nil), payload...), "-done"...) }

// dirBytes sums the object files under dir and reports leftover temp files.
func dirBytes(t *testing.T, dir string) (size int64, temps int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".put-") {
			temps++
			continue
		}
		if info, err := e.Info(); err == nil { // a swept file may vanish mid-listing
			size += info.Size()
		}
	}
	return size, temps
}

// TestObjectSweepSoak runs steady spill traffic against a file-backed object
// store under a 1 s retention: unique payloads plus a hot set in which each
// payload comes back just as it ages out (the set sizes itself to the rate),
// so hot objects keep turning up for a dedup probe at the moment the sweeper
// wants them — some a little before their last task is purged, some between
// purge and sweep, some after. The store must plateau — purged tasks release
// what they spilled — while no task ever sees a dangling reference.
func TestObjectSweepSoak(t *testing.T) {
	const (
		retention = time.Second
		soak      = 4 * time.Second
		blobSize  = 4 << 10
	)
	dir := filepath.Join(t.TempDir(), "objects")
	objs, err := objectstore.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := objectstore.ServeHTTP(objs, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	f := newFixtureConfig(t, Config{Objects: objs, InlineThreshold: 1 << 10})
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	var dangling atomic.Int64
	f.spillAgent(t, ep, objectstore.NewClient(srv.Addr()), &dangling)
	stop := f.svc.StartRetentionSweeper(retention, 50*time.Millisecond)
	defer stop()

	payload := func(tag string, i int) []byte {
		return []byte(fmt.Sprintf("%q", fmt.Sprintf("%s-%d-%s", tag, i, strings.Repeat("p", blobSize))))
	}
	// Each hot payload falls due for its next use a retention (plus up to
	// 70 ms) after its last one; a round uses the one that most recently fell
	// due, or mints a new one.
	type hotUse struct {
		idx int
		due time.Time
	}
	var hot []hotUse // oldest use first
	hotMade, revisits := 0, 0
	nextHot := func(round int) int {
		now := time.Now()
		for len(hot) > 1 && now.After(hot[1].due) {
			hot = hot[1:]
		}
		idx := hotMade
		if len(hot) > 0 && now.After(hot[0].due) {
			idx, hot = hot[0].idx, hot[1:]
			revisits++
		} else {
			hotMade++
		}
		hot = append(hot, hotUse{idx, now.Add(retention + time.Duration(round%8)*10*time.Millisecond)})
		return idx
	}
	type sample struct {
		objects int
		bytes   int64
	}
	var samples []sample // one per 250 ms once two retentions have passed
	start := time.Now()
	nextSample := start.Add(2 * retention)
	tasks := 0
	for round := 0; time.Since(start) < soak; round++ {
		batch := [][]byte{payload("unique", round), payload("hot", nextHot(round))}
		ids, err := f.svc.Submit(f.token, []SubmitRequest{
			{EndpointID: ep, FunctionID: fn, Payload: batch[0]},
			{EndpointID: ep, FunctionID: fn, Payload: batch[1]},
		})
		if err != nil {
			t.Fatal(err)
		}
		tasks += len(ids)
		// Both refs of a task that just finished resolve: its row is younger
		// than the retention, so nothing may have swept them.
		for i, id := range ids {
			if st := waitTask(t, f.svc, id, 10*time.Second); st.State != protocol.StateSuccess {
				t.Fatalf("round %d task %d: %s (%s)", round, i, st.State, st.Error)
			}
			rec, err := f.store.GetTask(id)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := objs.Get(rec.Task.PayloadRef); err != nil || !bytes.Equal(got, batch[i]) {
				t.Fatalf("round %d task %d: payload ref: %d bytes, %v", round, i, len(got), err)
			}
			if got, err := objs.Get(rec.ResultRef); err != nil || !bytes.Equal(got, resultOf(batch[i])) {
				t.Fatalf("round %d task %d: result ref: %d bytes, %v", round, i, len(got), err)
			}
		}
		if now := time.Now(); now.After(nextSample) {
			size, _ := dirBytes(t, dir)
			samples = append(samples, sample{objs.Len(), size})
			nextSample = now.Add(250 * time.Millisecond)
		}
	}
	stop()
	if n := dangling.Load(); n != 0 {
		t.Errorf("%d tasks saw a dangling payload reference", n)
	}

	// Plateau: with everything older than the retention released, the store
	// holds a bounded window of the traffic, not its history.
	puts := objs.Metrics.Counter("puts").Value()
	swept := objs.Metrics.Counter("swept").Value()
	t.Logf("%d tasks, %d hot payloads revisited %d times, %d puts, %d dedup hits, %d swept; samples %v",
		tasks, hotMade, revisits, puts, objs.Metrics.Counter("dedup_hits").Value(), swept, samples)
	if len(samples) < 4 {
		t.Fatalf("only %d samples", len(samples))
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples {
		if s.objects < lo.objects {
			lo.objects = s.objects
		}
		if s.objects > hi.objects {
			hi.objects = s.objects
		}
		if s.bytes < lo.bytes {
			lo.bytes = s.bytes
		}
		if s.bytes > hi.bytes {
			hi.bytes = s.bytes
		}
	}
	if objs.Metrics.Counter("dedup_hits").Value() == 0 {
		t.Error("no hot payload came back before it was swept: the dedup-hit side of the race never ran")
	}
	if swept == 0 || int64(hi.objects) > puts/2 {
		t.Errorf("store did not release history: peak %d objects of %d put, %d swept", hi.objects, puts, swept)
	}
	if hi.objects > 2*lo.objects || hi.bytes > 2*lo.bytes {
		t.Errorf("no plateau: objects %d..%d, bytes %d..%d", lo.objects, hi.objects, lo.bytes, hi.bytes)
	}

	// At rest, every reference the remaining rows hold resolves and the
	// index agrees with the directory.
	for key := range f.store.ObjectRefs() {
		if _, err := objs.Get(key); err != nil {
			t.Errorf("live task references %s: %v", key, err)
		}
	}
	if size, temps := dirBytes(t, dir); size != objs.TotalBytes() || temps != 0 {
		t.Errorf("directory holds %d bytes and %d temp files, index says %d bytes", size, temps, objs.TotalBytes())
	}
}
