package broker

import (
	"testing"
	"time"
)

// connRoundTrip exercises a Conn implementation uniformly.
// publish sends one body through a Conn: a batch of one.
func publish(c Conn, queue string, body []byte) error {
	return c.PublishBatch(queue, [][]byte{body}, nil)
}

func connRoundTrip(t *testing.T, conn Conn) {
	t.Helper()
	if err := conn.Declare("q"); err != nil {
		t.Fatal(err)
	}
	sub, err := conn.Subscribe("q", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := publish(conn, "q", []byte("one")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.Messages():
		if string(m.Body) != "one" {
			t.Errorf("body = %q", m.Body)
		}
		if err := sub.Ack(m.Tag); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery")
	}
	// Cancel closes the channel and requeues the unacked delivery, which
	// the next subscription receives flagged redelivered.
	publish(conn, "q", []byte("two"))
	<-sub.Messages()
	if err := sub.Cancel(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-sub.Messages():
		if ok {
			t.Error("message after cancel")
		}
	case <-time.After(2 * time.Second):
		t.Error("channel not closed after cancel")
	}
	sub2, err := conn.Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m2 := <-sub2.Messages():
		if !m2.Redelivered || string(m2.Body) != "two" {
			t.Errorf("redelivery = %+v", m2)
		}
		sub2.Ack(m2.Tag)
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled delivery never redelivered")
	}
	sub2.Cancel()
}

func TestRejectDeadLetters(t *testing.T) {
	for name, mk := range map[string]func(t *testing.T) (Conn, *Broker){
		"local": func(t *testing.T) (Conn, *Broker) {
			b := New()
			t.Cleanup(b.Close)
			return LocalConn(b), b
		},
		"remote": func(t *testing.T) (Conn, *Broker) {
			s, b := newTestServer(t)
			c, err := Dial(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c.AsConn(), b
		},
	} {
		t.Run(name, func(t *testing.T) {
			conn, b := mk(t)
			conn.Declare("q")
			publish(conn, "q", []byte("poison"))
			sub, err := conn.Subscribe("q", 1)
			if err != nil {
				t.Fatal(err)
			}
			m := <-sub.Messages()
			if err := sub.Reject(m.Tag); err != nil {
				t.Fatal(err)
			}
			// Not redelivered on the original queue...
			select {
			case m2 := <-sub.Messages():
				t.Fatalf("rejected message redelivered: %q", m2.Body)
			case <-time.After(100 * time.Millisecond):
			}
			// ...but available on the dead-letter queue.
			deadline := time.Now().Add(2 * time.Second)
			for {
				if d, err := b.Depth("q" + DeadLetterSuffix); err == nil && d == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("message never dead-lettered")
				}
				time.Sleep(5 * time.Millisecond)
			}
			dlq, err := conn.Subscribe("q"+DeadLetterSuffix, 1)
			if err != nil {
				t.Fatal(err)
			}
			dead := <-dlq.Messages()
			if string(dead.Body) != "poison" {
				t.Errorf("dlq body = %q", dead.Body)
			}
			dlq.Ack(dead.Tag)
			// Rejecting an unknown tag errors.
			if err := sub.Reject(999); err == nil {
				t.Error("unknown tag rejected successfully")
			}
		})
	}
}

func TestLocalConn(t *testing.T) {
	b := New()
	defer b.Close()
	connRoundTrip(t, LocalConn(b))
}

func TestClientConn(t *testing.T) {
	s, _ := newTestServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	connRoundTrip(t, c.AsConn())
}

func TestRemoteCancelRequeues(t *testing.T) {
	s, b := newTestServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := c.AsConn()
	conn.Declare("q")
	publish(conn, "q", []byte("keep"))
	sub, err := conn.Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	<-sub.Messages() // deliver, never ack
	if err := sub.Cancel(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if d, _ := b.Depth("q"); d == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("message not requeued after remote cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Resubscribe on the same connection now works (slot freed).
	sub2, err := conn.Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	m := <-sub2.Messages()
	if !m.Redelivered {
		t.Error("not flagged redelivered")
	}
	sub2.Ack(m.Tag)
}

func TestRemoteCancelUnknownQueue(t *testing.T) {
	s, _ := newTestServer(t)
	c, _ := Dial(s.Addr())
	defer c.Close()
	c.Declare("q")
	rc, _ := c.Consume("q", 1)
	if err := rc.Cancel(); err != nil {
		t.Fatal(err)
	}
	// Second cancel: the server no longer knows the consumer.
	if err := rc.Cancel(); err == nil {
		t.Error("double cancel succeeded")
	}
}
