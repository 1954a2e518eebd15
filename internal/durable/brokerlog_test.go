package durable

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

func openBrokerLog(t *testing.T, dir string) *BrokerLog {
	t.Helper()
	bl, err := OpenBroker(BrokerOptions{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("OpenBroker: %v", err)
	}
	return bl
}

// TestBrokerRecovery publishes, delivers, and acks against a journaled
// broker, crashes without closing, and checks the reopened broker holds
// exactly the unacked messages — all flagged Redelivered.
func TestBrokerRecovery(t *testing.T) {
	dir := t.TempDir()
	bl := openBrokerLog(t, dir)
	if err := bl.B.Declare("tasks.ep1"); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := bl.B.Publish("tasks.ep1", []byte(fmt.Sprintf("task-%d", i))); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	c, err := bl.B.Consume("tasks.ep1", 2)
	if err != nil {
		t.Fatalf("Consume: %v", err)
	}
	// Deliver two, ack the first: after a crash, task-0 must be gone and
	// task-1 (delivered but unacked) must come back.
	m0 := <-c.Messages()
	m1 := <-c.Messages()
	if err := c.Ack(m0.Tag); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	_ = m1
	// Acks journal asynchronously, after ackWindow; force the append and the
	// flush a real deployment gets from its timers.
	bl.journalHeldAcks()
	if err := bl.WAL().Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Crash: no Close, no snapshot.

	bl2 := openBrokerLog(t, dir)
	defer bl2.Close()
	depth, err := bl2.B.Depth("tasks.ep1")
	if err != nil {
		t.Fatalf("Depth after recovery: %v", err)
	}
	if depth != 4 {
		t.Fatalf("recovered depth = %d, want 4 (5 published - 1 acked)", depth)
	}
	c2, err := bl2.B.Consume("tasks.ep1", 8)
	if err != nil {
		t.Fatalf("Consume: %v", err)
	}
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		select {
		case m := <-c2.Messages():
			if !m.Redelivered {
				t.Errorf("recovered message %q not flagged Redelivered", m.Body)
			}
			seen[string(m.Body)] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for recovered message %d", i)
		}
	}
	if seen["task-0"] {
		t.Error("acked task-0 came back after recovery")
	}
	for _, want := range []string{"task-1", "task-2", "task-3", "task-4"} {
		if !seen[want] {
			t.Errorf("message %q lost across recovery", want)
		}
	}
}

// TestBrokerSnapshotDedupe snapshots mid-stream and verifies replayed
// publish records already covered by the snapshot are not duplicated.
func TestBrokerSnapshotDedupe(t *testing.T) {
	dir := t.TempDir()
	bl := openBrokerLog(t, dir)
	if err := bl.B.Declare("q"); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := bl.B.Publish("q", []byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	if err := bl.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	for i := 10; i < 15; i++ {
		if err := bl.B.Publish("q", []byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	// Crash. The snapshot covers the first 10; the tail holds the last 5 —
	// and possibly records below the horizon if compaction lagged.
	bl2 := openBrokerLog(t, dir)
	defer bl2.Close()
	depth, err := bl2.B.Depth("q")
	if err != nil {
		t.Fatalf("Depth: %v", err)
	}
	if depth != 15 {
		t.Fatalf("recovered depth = %d, want exactly 15 (no duplicates, no losses)", depth)
	}
}

// TestBrokerDeleteJournaled verifies a deleted queue stays deleted across
// recovery.
func TestBrokerDeleteJournaled(t *testing.T) {
	dir := t.TempDir()
	bl := openBrokerLog(t, dir)
	if err := bl.B.Declare("keep"); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	if err := bl.B.Declare("drop"); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	if err := bl.B.Publish("drop", []byte("stale")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := bl.B.Delete("drop"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := bl.WAL().Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	bl2 := openBrokerLog(t, dir)
	defer bl2.Close()
	if _, err := bl2.B.Depth("drop"); err == nil {
		t.Error("deleted queue resurrected after recovery")
	}
	if _, err := bl2.B.Depth("keep"); err != nil {
		t.Errorf("surviving queue lost: %v", err)
	}
}

// TestBrokerReplaysJSONRecords opens a broker log written entirely in JSON
// (the pub and ack records of every commit before the binary encoding) and
// keeps journaling onto it.
func TestBrokerReplaysJSONRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: filepath.Join(dir, brokerWALDir), noSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []brokerRecord{
		{Op: "declare", Queue: "tasks.ep1"},
		{Op: "pub", Queue: "tasks.ep1", IDs: []uint64{1, 2, 3}, Bodies: [][]byte{[]byte("a"), []byte("b"), []byte("c")}},
		{Op: "ack", Queue: "tasks.ep1", IDs: []uint64{2}},
	} {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	bl := openBrokerLog(t, dir)
	if err := bl.B.Publish("tasks.ep1", []byte("d")); err != nil {
		t.Fatal(err)
	}
	// Crash; the log now ends in a binary record.
	bl2 := openBrokerLog(t, dir)
	defer bl2.Close()
	c, err := bl2.B.Consume("tasks.ep1", 8)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for i := 0; i < 3; i++ {
		select {
		case m := <-c.Messages():
			got += string(m.Body)
		case <-time.After(2 * time.Second):
			t.Fatalf("recovered %q, want acd", got)
		}
	}
	if got != "acd" {
		t.Fatalf("recovered %q, want acd", got)
	}
}

// TestBrokerCoalescesAcks acks messages one at a time, as an executor acks
// its streamed results, and expects them journaled together: far fewer ack
// records than acks, every one of them honoured after a crash.
func TestBrokerCoalescesAcks(t *testing.T) {
	dir := t.TempDir()
	bl := openBrokerLog(t, dir)
	const n = 50
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("r%d", i))
	}
	if err := bl.B.Declare("results.group.g"); err != nil {
		t.Fatal(err)
	}
	if err := bl.B.PublishBatch("results.group.g", bodies, nil); err != nil {
		t.Fatal(err)
	}
	c, err := bl.B.Consume("results.group.g", n)
	if err != nil {
		t.Fatal(err)
	}
	before := bl.WAL().LastLSN()
	for i := 0; i < n-1; i++ { // all but the last
		m := <-c.Messages()
		if err := c.Ack(m.Tag); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(4 * ackWindow) // the timer journals them; nothing forces it here
	if err := bl.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	if got := bl.WAL().LastLSN() - before; got == 0 || got > 5 {
		t.Fatalf("%d single acks journaled as %d records, want 1..5", n-1, got)
	}
	// Crash: no Close, no snapshot.
	bl2 := openBrokerLog(t, dir)
	defer bl2.Close()
	if depth, err := bl2.B.Depth("results.group.g"); err != nil || depth != 1 {
		t.Fatalf("recovered depth %d (%v), want 1: the unacked message alone", depth, err)
	}
}
