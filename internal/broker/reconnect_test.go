package broker

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// dialConn adapts Dial to a NewReconnecting dial function.
func dialConn(addr string) func() (Conn, error) {
	return func() (Conn, error) {
		c, err := Dial(addr)
		if err != nil {
			return nil, err
		}
		return c.AsConn(), nil
	}
}

func TestReconnectingConnSurvivesServerRestart(t *testing.T) {
	b := New()
	defer b.Close()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()

	rc, err := NewReconnecting(dialConn(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.Declare("q"); err != nil {
		t.Fatal(err)
	}
	sub, err := rc.Subscribe("q", 4)
	if err != nil {
		t.Fatal(err)
	}

	// Normal delivery before the fault.
	if err := publish(rc, "q", []byte("before")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.Messages():
		if string(m.Body) != "before" {
			t.Fatalf("message = %q", m.Body)
		}
		_ = sub.Ack(m.Tag)
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery before restart")
	}

	// Kill the TCP front end and bring it back on the same address. The
	// in-process broker (and its queues) survives; only connections die.
	s.Close()
	var s2 *Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		s2, err = Serve(b, addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart listener: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer s2.Close()

	// Publishing retries through the redial; the consumer resubscribes and
	// delivery continues on the same Messages channel.
	if err := publish(rc, "q", []byte("after")); err != nil {
		t.Fatalf("publish after restart: %v", err)
	}
	select {
	case m, ok := <-sub.Messages():
		if !ok {
			t.Fatal("subscription channel closed across restart")
		}
		if string(m.Body) != "after" {
			t.Fatalf("message = %q", m.Body)
		}
		_ = sub.Ack(m.Tag)
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery after restart")
	}

	if v := rc.Metrics.Counter("reconnects").Value(); v < 1 {
		t.Errorf("reconnects = %d, want >= 1", v)
	}
	if v := rc.Metrics.Counter("resubscribes").Value(); v < 1 {
		t.Errorf("resubscribes = %d, want >= 1", v)
	}
}

func TestReconnectingConnPublishGivesUp(t *testing.T) {
	// Dead dial target: bounded publish attempts must fail, not hang.
	rc, err := NewReconnecting(func() (Conn, error) { return nil, errors.New("connection refused") })
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	done := make(chan error, 1)
	go func() { done <- publish(rc, "q", []byte("x")) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("publish succeeded with no reachable broker")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish never returned")
	}
	if v := rc.Metrics.Counter("publish_retries").Value(); v != publishAttempts-1 {
		t.Errorf("publish_retries = %d, want %d", v, publishAttempts-1)
	}
}

func TestReconnectingConnNonTransientErrorNotRetried(t *testing.T) {
	b := New()
	defer b.Close()
	rc, err := NewReconnecting(func() (Conn, error) { return LocalConn(b), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// Publishing to an undeclared queue is a broker-level rejection, not a
	// connection fault: it must fail immediately without burning retries.
	if err := publish(rc, "no-such-queue", []byte("x")); err == nil {
		t.Fatal("publish to missing queue succeeded")
	}
	if v := rc.Metrics.Counter("publish_retries").Value(); v != 0 {
		t.Errorf("publish_retries = %d, want 0 for non-transient error", v)
	}
}

func TestReconnectingConnCloseUnblocks(t *testing.T) {
	// The shipped backoff keeps a publish retrying for well over the 20ms
	// before Close.
	rc, err := NewReconnecting(func() (Conn, error) { return nil, fmt.Errorf("connection refused") })
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- publish(rc, "q", []byte("x")) }()
	time.Sleep(20 * time.Millisecond)
	rc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("publish not unblocked by Close")
	}
}

func TestTransientBrokerErrClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrClosed, true},
		{ErrConsumerClosed, true},
		{errors.New("broker: connection lost"), true},
		{errors.New("dial tcp: connection refused"), true},
		{errors.New("read: connection reset by peer"), true},
		{errors.New("broker: unknown queue \"q\""), false},
		{errors.New("broker: queue exists"), false},
	}
	for _, c := range cases {
		if got := transientBrokerErr(c.err); got != c.want {
			t.Errorf("transientBrokerErr(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestReconnectKeepsNegotiatedCodec drops the connection under a
// ReconnectingConn and verifies the replacement connection is a fresh
// client that speaks the binary codec — the server refuses anything else,
// so a delivery on it shows the codec held — and redelivers the unacked
// message.
func TestReconnectKeepsNegotiatedCodec(t *testing.T) {
	s, _ := newTestServer(t)
	var (
		mu      sync.Mutex
		clients []*Client
	)
	last := func() *Client {
		mu.Lock()
		defer mu.Unlock()
		return clients[len(clients)-1]
	}
	rc, err := NewReconnecting(func() (Conn, error) {
		c, err := Dial(s.Addr())
		if err != nil {
			return nil, err
		}
		mu.Lock()
		clients = append(clients, c)
		mu.Unlock()
		return c.AsConn(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	queue := "tasks.ep-reconn"
	if err := rc.Declare(queue); err != nil {
		t.Fatal(err)
	}
	sub, err := rc.Subscribe(queue, 4)
	if err != nil {
		t.Fatal(err)
	}

	if err := publish(rc, queue, []byte("before-drop")); err != nil {
		t.Fatal(err)
	}
	var m Message
	select {
	case m = <-sub.Messages():
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery before drop")
	}
	if string(m.Body) != "before-drop" {
		t.Fatalf("body = %q", m.Body)
	}

	// Kill the connection without acking: the broker requeues, the
	// subscription resubscribes on a fresh connection, and the message
	// arrives again flagged Redelivered.
	first := last()
	first.Close()
	select {
	case m = <-sub.Messages():
	case <-time.After(5 * time.Second):
		t.Fatal("no redelivery after reconnect")
	}
	if string(m.Body) != "before-drop" || !m.Redelivered {
		t.Fatalf("redelivery = %q (redelivered=%v)", m.Body, m.Redelivered)
	}
	if err := sub.Ack(m.Tag); err != nil {
		t.Fatal(err)
	}
	if last() == first {
		t.Error("redelivery arrived without a replacement connection")
	}
	if err := publish(rc, queue, []byte("after-drop")); err != nil {
		t.Fatal(err)
	}
	select {
	case m = <-sub.Messages():
		if string(m.Body) != "after-drop" {
			t.Fatalf("post-reconnect body = %q", m.Body)
		}
		_ = sub.Ack(m.Tag)
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery after reconnect")
	}
}
