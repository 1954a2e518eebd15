package broker

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"globuscompute/internal/protocol"
)

func newTestServer(t *testing.T) (*Server, *Broker) {
	t.Helper()
	b := New()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})
	return s, b
}

func TestClientPublishConsume(t *testing.T) {
	s, _ := newTestServer(t)
	pub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if err := pub.Declare("tasks.ep1"); err != nil {
		t.Fatal(err)
	}
	rc, err := sub.Consume("tasks.ep1", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := publish(pub.AsConn(), "tasks.ep1", []byte(fmt.Sprintf("task-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		select {
		case m := <-rc.Messages():
			if string(m.Body) != fmt.Sprintf("task-%d", i) {
				t.Fatalf("message %d = %q", i, m.Body)
			}
			if err := rc.Ack(m.Tag); err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for message %d", i)
		}
	}
}

func TestClientPing(t *testing.T) {
	s, _ := newTestServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Errorf("ping = %v", err)
	}
}

func TestClientErrorsPropagate(t *testing.T) {
	s, _ := newTestServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := publish(c.AsConn(), "no-such-queue", []byte("x")); err == nil {
		t.Error("publish to missing queue succeeded")
	}
	if _, err := c.Consume("no-such-queue", 1); err == nil {
		t.Error("consume of missing queue succeeded")
	}
}

func TestClientDuplicateConsume(t *testing.T) {
	s, _ := newTestServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Declare("q")
	if _, err := c.Consume("q", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Consume("q", 1); err == nil {
		t.Error("duplicate consume on one connection succeeded")
	}
}

func TestClientDisconnectRequeues(t *testing.T) {
	s, b := newTestServer(t)
	pub, _ := Dial(s.Addr())
	defer pub.Close()
	pub.Declare("q")
	publish(pub.AsConn(), "q", []byte("precious"))

	sub, _ := Dial(s.Addr())
	rc, err := sub.Consume("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	<-rc.Messages() // receive but never ack
	sub.Close()     // disconnect: server must requeue

	deadline := time.After(2 * time.Second)
	for {
		d, _ := b.Depth("q")
		if d == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("message not requeued after disconnect (depth=%d)", d)
		case <-time.After(10 * time.Millisecond):
		}
	}
	// A new consumer gets it, flagged redelivered.
	sub2, _ := Dial(s.Addr())
	defer sub2.Close()
	rc2, _ := sub2.Consume("q", 1)
	select {
	case m := <-rc2.Messages():
		if !m.Redelivered {
			t.Error("message not flagged redelivered")
		}
		rc2.Ack(m.Tag)
	case <-time.After(2 * time.Second):
		t.Fatal("requeued message never redelivered")
	}
}

func TestClientNack(t *testing.T) {
	s, _ := newTestServer(t)
	c, _ := Dial(s.Addr())
	defer c.Close()
	c.Declare("q")
	publish(c.AsConn(), "q", []byte("x"))
	rc, _ := c.Consume("q", 1)
	m := <-rc.Messages()
	if err := rc.Nack(m.Tag); err != nil {
		t.Fatal(err)
	}
	select {
	case m2 := <-rc.Messages():
		if !m2.Redelivered {
			t.Error("nacked message not flagged redelivered")
		}
		rc.Ack(m2.Tag)
	case <-time.After(2 * time.Second):
		t.Fatal("nacked message never redelivered")
	}
}

func TestClientCallsAfterClose(t *testing.T) {
	s, _ := newTestServer(t)
	c, _ := Dial(s.Addr())
	c.Close()
	time.Sleep(20 * time.Millisecond)
	if err := c.Declare("q"); err == nil {
		t.Error("declare after close succeeded")
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	b := New()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := Dial(s.Addr())
	c.Declare("q")
	rc, _ := c.Consume("q", 1)
	s.Close()
	select {
	case _, ok := <-rc.Messages():
		if ok {
			t.Error("unexpected delivery after server close")
		}
	case <-time.After(2 * time.Second):
		t.Error("consumer channel not closed after server shutdown")
	}
	b.Close()
}

func TestConcurrentClientsThroughput(t *testing.T) {
	s, _ := newTestServer(t)
	pub, _ := Dial(s.Addr())
	defer pub.Close()
	pub.Declare("q")

	const producers, perProducer = 4, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < perProducer; i++ {
				if err := publish(c.AsConn(), "q", []byte{byte(p), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	sub, _ := Dial(s.Addr())
	defer sub.Close()
	rc, err := sub.Consume("q", 16)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	timeout := time.After(10 * time.Second)
	for got < producers*perProducer {
		select {
		case m := <-rc.Messages():
			rc.Ack(m.Tag)
			got++
		case <-timeout:
			t.Fatalf("received %d of %d", got, producers*perProducer)
		}
	}
	wg.Wait()
}

// TestServerRefusesJSONFrame checks that a frame which is not a binary
// envelope ends only the connection that sent it: no reply, no effect on
// the broker, and a second client on the same server keeps working.
func TestServerRefusesJSONFrame(t *testing.T) {
	body := `{"type":"declare","id":"1","body":{"queue":"json"}}`
	checkServerRefuses(t, append([]byte{0, 0, 0, byte(len(body))}, body...), "json")
}

// TestFrameReaderRefusesOldVersion: a version-1 frame — what a peer built
// before task and result bodies went binary sends — fails to read with
// ErrBadFrame, and the broker server ends only that connection.
func TestFrameReaderRefusesOldVersion(t *testing.T) {
	env, err := protocol.NewEnvelope(protocol.EnvDeclare, "1", protocol.DeclareBody{Queue: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := protocol.EncodeBinaryEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	payload[1] = 1 // the version byte
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	if _, err := protocol.NewFrameReader(bytes.NewReader(frame)).Read(); !errors.Is(err, protocol.ErrBadFrame) {
		t.Fatalf("version-1 frame: err = %v, want ErrBadFrame", err)
	}
	checkServerRefuses(t, frame, "v1")
}

// checkServerRefuses sends frame, which would declare queue if it were
// accepted, on a connection of its own, and checks that the server closes
// that connection without a reply or an effect while another client on the
// same server keeps working.
func checkServerRefuses(t *testing.T, frame []byte, queue string) {
	t.Helper()
	s, b := newTestServer(t)
	good, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.Declare("q"); err != nil {
		t.Fatal(err)
	}

	bad, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := bad.Write(frame); err != nil {
		t.Fatal(err)
	}
	if n, err := bad.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("after a refused frame: read %d bytes, err %v; want the connection closed", n, err)
	}
	if _, err := b.Depth(queue); err == nil {
		t.Error("the refused frame's declare took effect")
	}

	rc, err := good.Consume("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := publish(good.AsConn(), "q", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-rc.Messages():
		if string(m.Body) != "still here" {
			t.Fatalf("body = %q", m.Body)
		}
		if err := rc.Ack(m.Tag); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the second client stopped working")
	}
}
