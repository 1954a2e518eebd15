package broker

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"globuscompute/internal/trace"
)

// roundTrip publishes n messages and consumes+acks them, failing on any
// mismatch. It exercises publish, delivery, ack, and trace propagation over
// whatever codec the connection negotiated.
func roundTrip(t *testing.T, pub, sub *Client, queue string, n int) {
	t.Helper()
	if err := pub.Declare(queue); err != nil {
		t.Fatal(err)
	}
	rc, err := sub.Consume(queue, 8)
	if err != nil {
		t.Fatal(err)
	}
	tc := &trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	for i := 0; i < n; i++ {
		if err := pub.PublishBatch(queue, [][]byte{[]byte(fmt.Sprintf("msg-%d", i))}, []*trace.Context{tc}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case m := <-rc.Messages():
			if string(m.Body) != fmt.Sprintf("msg-%d", i) {
				t.Fatalf("message %d = %q", i, m.Body)
			}
			if m.Trace == nil || m.Trace.TraceID != tc.TraceID {
				t.Fatalf("message %d trace = %+v, want trace id %s", i, m.Trace, tc.TraceID)
			}
			if err := rc.Ack(m.Tag); err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for message %d", i)
		}
	}
}

func TestBinaryCodecNegotiated(t *testing.T) {
	s, b := newTestServer(t)
	pub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pub.EnableBinary()
	sub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.EnableBinary()

	roundTrip(t, pub, sub, "tasks.ep-bin", 10)
	if !pub.BinaryNegotiated() {
		t.Error("publisher did not negotiate binary")
	}
	// The subscriber negotiates on Consume.
	if !sub.BinaryNegotiated() {
		t.Error("subscriber did not negotiate binary")
	}
	if got := b.Metrics.Counter("codec_binary_conns").Value(); got < 2 {
		t.Errorf("codec_binary_conns = %d, want >= 2", got)
	}
}

func TestBinaryCodecWithBatching(t *testing.T) {
	s, _ := newTestServer(t)
	pub, err := dialBatching(s.Addr(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pub.EnableBinary()
	sub, err := dialBatching(s.Addr(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.EnableBinary()

	queue := "tasks.ep-binbatch"
	if err := pub.Declare(queue); err != nil {
		t.Fatal(err)
	}
	rc, err := sub.Consume(queue, 32)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("batch-%d", i))
	}
	if err := pub.PublishBatch(queue, bodies, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case m := <-rc.Messages():
			if !bytes.Equal(m.Body, bodies[i]) {
				t.Fatalf("message %d = %q, want %q", i, m.Body, bodies[i])
			}
			if err := rc.Ack(m.Tag); err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for message %d", i)
		}
	}
	if !pub.BinaryNegotiated() || !sub.BinaryNegotiated() {
		t.Error("batched clients did not negotiate binary")
	}
}

// TestBinaryClientJSONOnlyServer pins the old-server interop path: a client
// that advertises the binary codec against a server that ignores the
// capability must stay fully functional on JSON.
func TestBinaryClientJSONOnlyServer(t *testing.T) {
	s, _ := newTestServer(t)
	s.DisableBinary = true
	pub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pub.EnableBinary()
	sub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.EnableBinary()

	roundTrip(t, pub, sub, "tasks.ep-oldsrv", 10)
	if pub.BinaryNegotiated() || sub.BinaryNegotiated() {
		t.Error("negotiated binary against a JSON-only server")
	}
}

// TestJSONClientBinaryServer pins the old-client interop path: a client that
// never advertises the codec keeps a pure-JSON connection against a
// binary-capable server.
func TestJSONClientBinaryServer(t *testing.T) {
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

	roundTrip(t, pub, sub, "tasks.ep-oldcli", 10)
	if pub.BinaryNegotiated() || sub.BinaryNegotiated() {
		t.Error("negotiated binary without advertising it")
	}
}

// TestReconnectKeepsNegotiatedCodec drops the connection under a
// ReconnectingConn whose Dial enables the binary codec, and verifies the
// replacement connection re-negotiates it and redelivers the unacked
// message.
func TestReconnectKeepsNegotiatedCodec(t *testing.T) {
	s, _ := newTestServer(t)
	var (
		lastClient *Client
	)
	rc, err := NewReconnecting(ReconnectConfig{
		Dial: func() (Conn, error) {
			c, err := Dial(s.Addr())
			if err != nil {
				return nil, err
			}
			c.EnableBinary()
			lastClient = c
			return c.AsConn(), nil
		},
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
	if !lastClient.BinaryNegotiated() {
		t.Fatal("first connection did not negotiate binary")
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
	// subscription resubscribes on a fresh (re-negotiated) connection, and
	// the message arrives again flagged Redelivered.
	first := lastClient
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
	if lastClient == first || !lastClient.BinaryNegotiated() {
		t.Error("reconnected client did not re-negotiate binary")
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
