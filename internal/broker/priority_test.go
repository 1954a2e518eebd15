package broker

import (
	"errors"
	"testing"
)

func TestPriorityDispatchOrder(t *testing.T) {
	b := New()
	defer b.Close()
	if err := b.Declare("q"); err != nil {
		t.Fatal(err)
	}
	// Publish batch-priority first, interactive second; with no consumer
	// attached both buffer, then the interactive messages must dispatch
	// first.
	if err := b.PublishBatch("q", [][]byte{[]byte("b1"), []byte("b2")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishBatchInteractive("q", [][]byte{[]byte("i1"), []byte("i2")}, nil); err != nil {
		t.Fatal(err)
	}
	c, err := b.Consume("q", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []string{"i1", "i2", "b1", "b2"}
	for _, w := range want {
		m := <-c.Messages()
		if string(m.Body) != w {
			t.Fatalf("got %q, want %q", m.Body, w)
		}
		c.Ack(m.Tag)
	}
}

func TestQueueLimitWatermarkShedding(t *testing.T) {
	b := New()
	defer b.Close()
	b.Declare("q")
	if err := b.SetQueueLimit("q", 10); err != nil {
		t.Fatal(err)
	}
	// Batch traffic fills to the 80% watermark (8 of 10), then sheds.
	for i := 0; i < 8; i++ {
		if err := b.Publish("q", []byte("x")); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := b.Publish("q", []byte("x")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("batch over watermark: err = %v, want ErrQueueFull", err)
	}
	// Interactive traffic still flows up to the hard limit.
	for i := 0; i < 2; i++ {
		if err := b.PublishBatchInteractive("q", [][]byte{[]byte("i")}, nil); err != nil {
			t.Fatalf("interactive publish %d: %v", i, err)
		}
	}
	if err := b.PublishBatchInteractive("q", [][]byte{[]byte("i")}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("interactive over hard limit: err = %v, want ErrQueueFull", err)
	}
	if d, _ := b.Depth("q"); d != 10 {
		t.Fatalf("depth = %d, want 10", d)
	}
	// A batch publish of n > remaining watermark headroom sheds whole.
	if err := b.PublishBatch("q", [][]byte{[]byte("a"), []byte("b")}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("batch publish on full queue: err = %v", err)
	}
	// Draining reopens the queue.
	c, err := b.Consume("q", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		m := <-c.Messages()
		c.Ack(m.Tag)
	}
	if err := b.Publish("q", []byte("y")); err != nil {
		t.Fatalf("publish after drain: %v", err)
	}
	// Removing the limit restores unbounded growth.
	if err := b.SetQueueLimit("q", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := b.Publish("q", []byte("z")); err != nil {
			t.Fatalf("unbounded publish: %v", err)
		}
	}
}

func TestRequeueBypassesLimitAndKeepsPriority(t *testing.T) {
	b := New()
	defer b.Close()
	b.Declare("q")
	c, err := b.Consume("q", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := b.PublishBatchInteractive("q", [][]byte{[]byte("i1")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("q", []byte("b1")); err != nil {
		t.Fatal(err)
	}
	<-c.Messages() // i1
	<-c.Messages() // b1
	// Clamp the queue shut, then disconnect with both unacked: the requeue
	// must succeed (no shed) and the interactive entry must redeliver first
	// to the next consumer.
	if err := b.SetQueueLimit("q", 1); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2, err := b.Consume("q", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	r1 := <-c2.Messages()
	r2 := <-c2.Messages()
	if string(r1.Body) != "i1" || !r1.Redelivered {
		t.Fatalf("first redelivery = %q (redelivered=%v), want i1", r1.Body, r1.Redelivered)
	}
	if string(r2.Body) != "b1" {
		t.Fatalf("second redelivery = %q, want b1", r2.Body)
	}
}

func TestPrioritySurvivesSnapshotRestore(t *testing.T) {
	b := New()
	b.Declare("q")
	b.PublishBatch("q", [][]byte{[]byte("b1")}, nil)
	b.PublishBatchInteractive("q", [][]byte{[]byte("i1")}, nil)
	b2 := restoreViaJSON(t, b)
	b.Close()

	c, err := b2.Consume("q", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := <-c.Messages()
	if string(first.Body) != "i1" {
		t.Fatalf("first after restore = %q, want i1", first.Body)
	}
}

func TestShedCounterAndDepthGauge(t *testing.T) {
	b := New()
	defer b.Close()
	b.Declare("q")
	b.SetQueueLimit("q", 2)
	b.Publish("q", []byte("x"))
	if err := b.Publish("q", []byte("x")); !errors.Is(err, ErrQueueFull) {
		// watermark of 2 is int(0.8*2)=1
		t.Fatalf("err = %v", err)
	}
	snap := b.Metrics.TakeSnapshot()
	if got := snap.Counters["shed.q"]; got != 1 {
		t.Errorf("shed.q = %d, want 1", got)
	}
	if got := snap.Gauges["depth.q"]; got != 1 {
		t.Errorf("depth.q = %d, want 1", got)
	}
}
