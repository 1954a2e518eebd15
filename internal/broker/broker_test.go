package broker

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDeclarePublishConsume(t *testing.T) {
	b := New()
	if err := b.Declare("q"); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("q", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	c, err := b.Consume("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	m := <-c.Messages()
	if string(m.Body) != "hello" {
		t.Errorf("body = %q, want hello", m.Body)
	}
	if m.Redelivered {
		t.Error("fresh message flagged redelivered")
	}
	if err := c.Ack(m.Tag); err != nil {
		t.Fatal(err)
	}
	if n, _ := b.Unacked("q"); n != 0 {
		t.Errorf("unacked = %d after ack", n)
	}
}

func TestDeclareIdempotent(t *testing.T) {
	b := New()
	if err := b.Declare("q"); err != nil {
		t.Fatal(err)
	}
	if err := b.Declare("q"); err != nil {
		t.Errorf("second declare = %v, want nil", err)
	}
}

func TestPublishUnknownQueue(t *testing.T) {
	b := New()
	if err := b.Publish("missing", nil); !errors.Is(err, ErrQueueNotFound) {
		t.Errorf("err = %v, want ErrQueueNotFound", err)
	}
}

func TestFIFOOrder(t *testing.T) {
	b := New()
	b.Declare("q")
	for i := 0; i < 50; i++ {
		b.Publish("q", []byte{byte(i)})
	}
	c, _ := b.Consume("q", 50)
	for i := 0; i < 50; i++ {
		m := <-c.Messages()
		if m.Body[0] != byte(i) {
			t.Fatalf("message %d out of order: got %d", i, m.Body[0])
		}
		c.Ack(m.Tag)
	}
}

func TestPrefetchWindow(t *testing.T) {
	b := New()
	b.Declare("q")
	for i := 0; i < 10; i++ {
		b.Publish("q", []byte("m"))
	}
	c, _ := b.Consume("q", 3)
	// Exactly 3 deliveries should be outstanding before any ack.
	time.Sleep(10 * time.Millisecond)
	if n, _ := b.Unacked("q"); n != 3 {
		t.Errorf("unacked = %d, want 3 (prefetch)", n)
	}
	if n, _ := b.Depth("q"); n != 7 {
		t.Errorf("depth = %d, want 7", n)
	}
	m := <-c.Messages()
	c.Ack(m.Tag)
	time.Sleep(10 * time.Millisecond)
	if n, _ := b.Unacked("q"); n != 3 {
		t.Errorf("unacked after ack = %d, want 3 (window refilled)", n)
	}
}

func TestConsumerCloseRequeues(t *testing.T) {
	b := New()
	b.Declare("q")
	b.Publish("q", []byte("x"))
	c1, _ := b.Consume("q", 1)
	<-c1.Messages() // deliver but never ack
	c1.Close()
	c2, _ := b.Consume("q", 1)
	select {
	case m := <-c2.Messages():
		if !m.Redelivered {
			t.Error("requeued message not flagged redelivered")
		}
		c2.Ack(m.Tag)
	case <-time.After(time.Second):
		t.Fatal("message lost after consumer close")
	}
}

// TestCloseRequeuesInDeliveryOrder: a consumer that leaves with a whole
// batch unacked, by Close in process or by a dropped TCP client, hands it to
// the next consumer in the order it was published, each one Redelivered.
func TestCloseRequeuesInDeliveryOrder(t *testing.T) {
	const n = 8
	setup := func(t *testing.T, b *Broker) {
		t.Helper()
		if err := b.Declare("q"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := b.Publish("q", []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// holdThenDrop takes all n deliveries from messages without acking, calls drop,
	// and checks that a new consumer gets them back in publish order.
	holdThenDrop := func(t *testing.T, b *Broker, messages <-chan Message, drop func()) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-messages:
			case <-time.After(5 * time.Second):
				t.Fatalf("timed out waiting for delivery %d", i)
			}
		}
		drop()
		for deadline := time.Now().Add(5 * time.Second); ; {
			unacked, _ := b.Unacked("q")
			if depth, _ := b.Depth("q"); unacked == 0 && depth == n {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("batch not requeued: unacked %d", unacked)
			}
			time.Sleep(5 * time.Millisecond)
		}
		c, err := b.Consume("q", n)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < n; i++ {
			select {
			case m := <-c.Messages():
				if want := fmt.Sprintf("m%d", i); string(m.Body) != want || !m.Redelivered {
					t.Fatalf("redelivery %d = %q (redelivered=%v), want %q redelivered", i, m.Body, m.Redelivered, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("timed out waiting for redelivery %d", i)
			}
		}
	}

	t.Run("close", func(t *testing.T) {
		b := New()
		defer b.Close()
		setup(t, b)
		c, err := b.Consume("q", n)
		if err != nil {
			t.Fatal(err)
		}
		holdThenDrop(t, b, c.Messages(), c.Close)
	})
	t.Run("tcp", func(t *testing.T) {
		s, b := newTestServer(t)
		setup(t, b)
		cl, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		rc, err := cl.Consume("q", n)
		if err != nil {
			t.Fatal(err)
		}
		holdThenDrop(t, b, rc.Messages(), func() { cl.Close() })
	})
}

func TestAckUnknownTag(t *testing.T) {
	b := New()
	b.Declare("q")
	c, _ := b.Consume("q", 1)
	if err := c.Ack(99); !errors.Is(err, ErrUnknownTag) {
		t.Errorf("err = %v, want ErrUnknownTag", err)
	}
}

func TestRoundRobinAcrossConsumers(t *testing.T) {
	b := New()
	b.Declare("q")
	c1, _ := b.Consume("q", 100)
	c2, _ := b.Consume("q", 100)
	for i := 0; i < 100; i++ {
		b.Publish("q", []byte("m"))
	}
	time.Sleep(20 * time.Millisecond)
	n1, n2 := len(c1.ch), len(c2.ch)
	if n1+n2 != 100 {
		t.Fatalf("delivered %d+%d, want 100", n1, n2)
	}
	if n1 == 0 || n2 == 0 {
		t.Errorf("distribution skewed: %d vs %d", n1, n2)
	}
}

func TestDeleteQueueClosesConsumers(t *testing.T) {
	b := New()
	b.Declare("q")
	c, _ := b.Consume("q", 1)
	if err := b.Delete("q"); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-c.Messages():
		if ok {
			t.Error("received message from deleted queue")
		}
	case <-time.After(time.Second):
		t.Error("consumer channel not closed on queue delete")
	}
	if err := b.Publish("q", nil); !errors.Is(err, ErrQueueNotFound) {
		t.Errorf("publish after delete = %v", err)
	}
}

func TestBrokerCloseRejectsOps(t *testing.T) {
	b := New()
	b.Declare("q")
	b.Close()
	if err := b.Declare("r"); !errors.Is(err, ErrClosed) {
		t.Errorf("declare after close = %v", err)
	}
	if err := b.Publish("q", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close = %v", err)
	}
}

func TestAtLeastOnceUnderChurn(t *testing.T) {
	// Publish N messages; consumers randomly nack/close; every message
	// must eventually be acked exactly as many distinct bodies as sent.
	b := New()
	b.Declare("q")
	const n = 200
	for i := 0; i < n; i++ {
		b.Publish("q", []byte(fmt.Sprintf("%d", i)))
	}
	var mu sync.Mutex
	seen := make(map[string]int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				done := len(seen) >= n
				mu.Unlock()
				if done {
					return
				}
				c, err := b.Consume("q", 5)
				if err != nil {
					return
				}
				for i := 0; i < 20; i++ {
					select {
					case m, ok := <-c.Messages():
						if !ok {
							return
						}
						if (int(m.Tag)+w)%7 == 0 {
							continue // left unacked: the Close below requeues it
						}
						mu.Lock()
						seen[string(m.Body)]++
						mu.Unlock()
						c.Ack(m.Tag)
					case <-time.After(50 * time.Millisecond):
					}
				}
				c.Close() // churn: requeue whatever is outstanding
			}
		}(w)
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("processed %d distinct messages, want %d", len(seen), n)
	}
	if d, _ := b.Depth("q"); d != 0 {
		t.Errorf("queue depth %d after processing all", d)
	}
}

func TestPublishBodyIsCopied(t *testing.T) {
	b := New()
	b.Declare("q")
	buf := []byte("orig")
	b.Publish("q", buf)
	copy(buf, "XXXX")
	c, _ := b.Consume("q", 1)
	m := <-c.Messages()
	if string(m.Body) != "orig" {
		t.Errorf("body = %q, publisher mutation leaked", m.Body)
	}
}

func TestPropertyConservation(t *testing.T) {
	// For any mix of publishes and acks, published == acked + depth +
	// unacked at quiescence.
	f := func(counts []uint8) bool {
		b := New()
		b.Declare("q")
		total := 0
		for _, cnt := range counts {
			k := int(cnt % 8)
			for i := 0; i < k; i++ {
				b.Publish("q", []byte("m"))
				total++
			}
		}
		c, _ := b.Consume("q", 4)
		acked := 0
		for acked < total/2 {
			m, ok := <-c.Messages()
			if !ok {
				return false
			}
			c.Ack(m.Tag)
			acked++
		}
		depth, _ := b.Depth("q")
		unacked, _ := b.Unacked("q")
		return acked+depth+unacked == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
