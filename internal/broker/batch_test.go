package broker

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/trace"
)

// --- batched publish/consume over TCP ---

// dialBatching dials a client whose consumers ask for delivery batches of up
// to maxBatch.
func dialBatching(addr string, maxBatch int) (*Client, error) {
	c, err := Dial(addr)
	if err == nil {
		c.EnableBatching(BatchConfig{MaxBatch: maxBatch})
	}
	return c, err
}

func TestBatchPublishConsumeTCP(t *testing.T) {
	s, _ := newTestServer(t)
	pub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := dialBatching(s.Addr(), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if err := pub.Declare("q"); err != nil {
		t.Fatal(err)
	}
	const n = 100
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("task-%d", i))
	}
	if err := pub.PublishBatch("q", bodies, nil); err != nil {
		t.Fatal(err)
	}

	rc, err := sub.Consume("q", 64)
	if err != nil {
		t.Fatal(err)
	}
	var tags []uint64
	for i := 0; i < n; i++ {
		select {
		case m := <-rc.Messages():
			if string(m.Body) != fmt.Sprintf("task-%d", i) {
				t.Fatalf("message %d = %q (batched delivery must preserve FIFO order)", i, m.Body)
			}
			tags = append(tags, m.Tag)
			if len(tags) == 32 || i == n-1 {
				if err := rc.Ack(tags...); err != nil {
					t.Fatal(err)
				}
				tags = tags[:0]
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for message %d", i)
		}
	}
}

// --- interop: old client against new server ---

// TestOldClientPlainPublishInterop speaks the pre-batching wire protocol by
// hand (plain publish / consume / ack envelopes, no batch fields) against
// the batching-aware server: everything must decode and deliver exactly as
// before, with plain delivery frames only.
func TestOldClientPlainPublishInterop(t *testing.T) {
	s, _ := newTestServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := protocol.NewFrameReader(conn)
	w := protocol.NewFrameWriter(conn)

	call := func(id, typ string, body any) {
		t.Helper()
		if err := w.Write(protocol.MustEnvelope(typ, id, body)); err != nil {
			t.Fatal(err)
		}
		env, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != protocol.EnvOK || env.ID != id {
			t.Fatalf("reply to %s = %s (id %s)", typ, env.Type, env.ID)
		}
	}
	call("1", protocol.EnvDeclare, declareBody{Queue: "q"})
	for i := 0; i < 3; i++ {
		call(fmt.Sprintf("p%d", i), protocol.EnvPublish, publishBody{Queue: "q", Body: []byte(fmt.Sprintf("m%d", i))})
	}
	call("c", protocol.EnvConsume, consumeBody{Queue: "q", Prefetch: 4})

	var tags []uint64
	for i := 0; i < 3; i++ {
		env, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != protocol.EnvDelivery {
			t.Fatalf("frame %d type = %q, want plain %q for a non-batch consumer", i, env.Type, protocol.EnvDelivery)
		}
		var d deliveryBody
		if err := env.Decode(&d); err != nil {
			t.Fatal(err)
		}
		if string(d.Body) != fmt.Sprintf("m%d", i) {
			t.Fatalf("delivery %d body = %q", i, d.Body)
		}
		tags = append(tags, d.Tag)
	}
	for i, tag := range tags {
		call(fmt.Sprintf("a%d", i), protocol.EnvAck, ackBody{Queue: "q", Tag: tag})
	}
}

// --- the lone/N wire rule ---

// recordingServer is a minimal frame-level broker stand-in that records
// every envelope type it receives and replies OK.
type recordingServer struct {
	ln net.Listener

	mu    sync.Mutex
	types []string
}

func startRecordingServer(t *testing.T) *recordingServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &recordingServer{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go rs.handle(conn)
		}
	}()
	return rs
}

func (rs *recordingServer) handle(conn net.Conn) {
	defer conn.Close()
	r := protocol.NewFrameReader(conn)
	w := protocol.NewFrameWriter(conn)
	for {
		env, err := r.Read()
		if err != nil {
			return
		}
		rs.mu.Lock()
		rs.types = append(rs.types, env.Type)
		rs.mu.Unlock()
		_ = w.Write(protocol.MustEnvelope(protocol.EnvOK, env.ID, nil))
	}
}

func (rs *recordingServer) recorded() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]string(nil), rs.types...)
}

// TestClientLoneAndBatchFrames pins the wire's lone-message rule at the one
// place that implements it: a one-element PublishBatch or Ack travels as the
// plain publish / ack envelope — what a server that predates the batch
// frames understands, and byte-identical idle traffic — and an N-element one
// as a single publish_batch / ack_batch frame.
func TestClientLoneAndBatchFrames(t *testing.T) {
	rs := startRecordingServer(t)
	c, err := dialBatching(rs.ln.Addr().String(), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := c.AsConn()
	sub, err := conn.Subscribe("q", 8)
	if err != nil {
		t.Fatal(err)
	}
	abc := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	steps := []struct {
		do   func() error
		want string
	}{
		{func() error { return conn.PublishBatch("q", abc[:1], nil) }, protocol.EnvPublish},
		{func() error { return c.Publish("q", []byte("solo")) }, protocol.EnvPublish},
		{func() error { return conn.PublishBatch("q", abc, nil) }, protocol.EnvPublishBatch},
		{func() error { return sub.Ack(7) }, protocol.EnvAck},
		{func() error { return sub.Ack(8, 9, 10) }, protocol.EnvAckBatch},
		{func() error { return AckBatchOn(sub, []uint64{11}) }, protocol.EnvAck},
		{func() error { return conn.PublishBatch("q", nil, nil) }, ""},
		{func() error { return sub.Ack() }, ""},
	}
	want := []string{protocol.EnvConsume}
	for i, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if st.want != "" {
			want = append(want, st.want)
		}
	}
	if got := rs.recorded(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recorded frames = %v, want %v (one frame per call)", got, want)
	}
}

// --- chaos: partially-acked batch redelivery ---

// TestChaosBatchedWirePartialAck delivers a batch over the wire, acks only
// half of it, then drops the connection: the broker must redeliver exactly
// the unacked half (flagged Redelivered) to the next consumer — the
// at-least-once contract with batching enabled.
func TestChaosBatchedWirePartialAck(t *testing.T) {
	s, _ := newTestServer(t)
	pub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Declare("q"); err != nil {
		t.Fatal(err)
	}
	const n = 8
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("m%d", i))
	}
	if err := pub.PublishBatch("q", bodies, nil); err != nil {
		t.Fatal(err)
	}

	first, err := dialBatching(s.Addr(), n)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := first.Consume("q", n)
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		select {
		case m := <-rc.Messages():
			if m.Redelivered {
				t.Fatalf("message %d already redelivered on first delivery", i)
			}
			tags = append(tags, m.Tag)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for message %d", i)
		}
	}
	// Ack the first half of the batch only, then drop the connection.
	if err := rc.Ack(tags[:n/2]...); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	rc2, err := second.Consume("q", n)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < n/2; i++ {
		select {
		case m := <-rc2.Messages():
			if !m.Redelivered {
				t.Fatalf("redelivery %d (%q) not flagged Redelivered", i, m.Body)
			}
			got[string(m.Body)] = true
			_ = rc2.Ack(m.Tag)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for redelivery %d (got %v)", i, got)
		}
	}
	for i := n / 2; i < n; i++ {
		if !got[fmt.Sprintf("m%d", i)] {
			t.Fatalf("unacked message m%d not redelivered (got %v)", i, got)
		}
	}
	select {
	case m := <-rc2.Messages():
		t.Fatalf("acked message %q redelivered", m.Body)
	case <-time.After(100 * time.Millisecond):
	}
}

// replyLossConn forwards a publish and then, when armed, reports the
// connection lost: the batch landed but its confirmation did not.
type replyLossConn struct {
	Conn
	armed *atomic.Bool
}

func (c replyLossConn) PublishBatch(queue string, bodies [][]byte, traces []*trace.Context) error {
	err := c.Conn.PublishBatch(queue, bodies, traces)
	if err == nil && c.armed.CompareAndSwap(true, false) {
		return ErrClosed
	}
	return err
}

// TestReconnectingBatchedConnSurvivesRestart runs the server-restart chaos
// drill on the wire the binaries use: a ReconnectingConn dialing batching
// clients keeps publishing batches and consuming across a broker front-end
// restart, and a batch whose confirmation is lost is retried as a unit — the
// consumer sees the whole batch twice, in order, and nothing is lost.
func TestReconnectingBatchedConnSurvivesRestart(t *testing.T) {
	b := New()
	defer b.Close()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()

	var loseReply atomic.Bool
	rc, err := NewReconnecting(ReconnectConfig{Dial: func() (Conn, error) {
		c, err := dialBatching(addr, 16)
		if err != nil {
			return nil, err
		}
		return replyLossConn{c.AsConn(), &loseReply}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.Declare("q"); err != nil {
		t.Fatal(err)
	}
	sub, err := rc.Subscribe("q", 16)
	if err != nil {
		t.Fatal(err)
	}

	recv := func(want string, timeout time.Duration) {
		t.Helper()
		deadline := time.After(timeout)
		for {
			select {
			case m, ok := <-sub.Messages():
				if !ok {
					t.Fatal("subscription closed")
				}
				_ = sub.Ack(m.Tag)
				if string(m.Body) == want {
					return
				}
				// Redeliveries of earlier messages may interleave; skip them.
			case <-deadline:
				t.Fatalf("no delivery of %q", want)
			}
		}
	}

	if err := rc.PublishBatch("q", [][]byte{[]byte("b0"), []byte("b1")}, nil); err != nil {
		t.Fatal(err)
	}
	recv("b0", 2*time.Second)
	recv("b1", 2*time.Second)

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

	if err := rc.PublishBatch("q", [][]byte{[]byte("after0"), []byte("after1")}, nil); err != nil {
		t.Fatalf("batch publish after restart: %v", err)
	}
	recv("after0", 5*time.Second)
	recv("after1", 5*time.Second)

	// The batch lands, the confirmation is lost, the conn redials and sends
	// the batch again: at-least-once, as a unit.
	retries := rc.Metrics.Counter("publish_retries").Value()
	loseReply.Store(true)
	if err := rc.PublishBatch("q", [][]byte{[]byte("dup0"), []byte("dup1")}, nil); err != nil {
		t.Fatalf("batch publish with a lost reply: %v", err)
	}
	if got := rc.Metrics.Counter("publish_retries").Value() - retries; got != 1 {
		t.Fatalf("publish_retries moved by %d, want 1 (one retry for the whole batch)", got)
	}
	for _, want := range []string{"dup0", "dup1", "dup0", "dup1"} {
		recv(want, 5*time.Second)
	}
	if d, _ := b.Depth("q"); d != 0 {
		t.Fatalf("%d messages left on the queue", d)
	}
}
