package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

// restoreViaJSON carries b's image through the JSON form the durable
// snapshot file stores and restores it into a fresh broker.
func restoreViaJSON(t *testing.T, b *Broker) *Broker {
	t.Helper()
	data, err := json.Marshal(b.SnapshotImage())
	if err != nil {
		t.Fatal(err)
	}
	var img Image
	if err := json.Unmarshal(data, &img); err != nil {
		t.Fatal(err)
	}
	b2 := New()
	t.Cleanup(b2.Close)
	if err := b2.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	return b2
}

func TestSnapshotRestoreReadyMessages(t *testing.T) {
	b := New()
	b.Declare("q1")
	b.Declare("q2")
	for i := 0; i < 5; i++ {
		b.Publish("q1", []byte(fmt.Sprintf("a-%d", i)))
	}
	b.Publish("q2", []byte("solo"))

	b2 := restoreViaJSON(t, b)
	b.Close()
	if d, _ := b2.Depth("q1"); d != 5 {
		t.Errorf("q1 depth = %d", d)
	}
	c, _ := b2.Consume("q1", 8)
	for i := 0; i < 5; i++ {
		select {
		case m := <-c.Messages():
			if string(m.Body) != fmt.Sprintf("a-%d", i) {
				t.Errorf("message %d = %q (order lost)", i, m.Body)
			}
			c.Ack(m.Tag)
		case <-time.After(2 * time.Second):
			t.Fatal("restored message missing")
		}
	}
	c2, _ := b2.Consume("q2", 1)
	m := <-c2.Messages()
	if string(m.Body) != "solo" {
		t.Errorf("q2 body = %q", m.Body)
	}
	c2.Ack(m.Tag)
}

func TestSnapshotIncludesUnacked(t *testing.T) {
	b := New()
	b.Declare("q")
	b.Publish("q", []byte("inflight"))
	b.Publish("q", []byte("waiting"))
	c, _ := b.Consume("q", 1)
	<-c.Messages() // delivered, never acked: must survive the snapshot

	b2 := restoreViaJSON(t, b)
	b.Close()
	if d, _ := b2.Depth("q"); d != 2 {
		t.Fatalf("depth = %d, want 2 (unacked folded in)", d)
	}
	c2, _ := b2.Consume("q", 2)
	first := <-c2.Messages()
	if string(first.Body) != "inflight" || !first.Redelivered {
		t.Errorf("first = %q redelivered=%v, want inflight/true", first.Body, first.Redelivered)
	}
	second := <-c2.Messages()
	if string(second.Body) != "waiting" {
		t.Errorf("second = %q", second.Body)
	}
	c2.Ack(first.Tag)
	c2.Ack(second.Tag)
}

// TestRestoreBadImage checks that neither a truncated snapshot file nor a
// restore into a closed broker passes silently.
func TestRestoreBadImage(t *testing.T) {
	var img Image
	if err := json.Unmarshal([]byte("{"), &img); err == nil {
		t.Error("truncated image decoded")
	}
	b := New()
	b.Close()
	img = Image{Queues: []QueueImage{{Name: "q", Messages: [][]byte{[]byte("x")}}}}
	if err := b.RestoreImage(img); !errors.Is(err, ErrClosed) {
		t.Errorf("restore into a closed broker = %v, want ErrClosed", err)
	}
}

func TestSnapshotEmptyBroker(t *testing.T) {
	b := New()
	defer b.Close()
	b2 := restoreViaJSON(t, b)
	if len(b2.Queues()) != 0 {
		t.Errorf("queues = %v", b2.Queues())
	}
}
