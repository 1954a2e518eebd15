package broker

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/trace"
)

// --- batched publish/consume over TCP ---

// dialBatching dials a client. Every connection is batched, so the batch
// size its callers name is not passed on: the server caps a delivery_batch
// at MaxDeliveryBatch, and the consumer's prefetch window caps it too.
func dialBatching(addr string, _ int) (*Client, error) { return Dial(addr) }

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

// --- the one wire form ---

// recordedFrame is one frame as a peer received it: the first payload byte
// and the envelope decoded from the payload.
type recordedFrame struct {
	first byte
	env   protocol.Envelope
}

// readRawFrame reads one length-prefixed frame without FrameReader, so the
// test sees the bytes a peer put on the wire.
func readRawFrame(r io.Reader) (recordedFrame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return recordedFrame{}, err
	}
	p := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, p); err != nil {
		return recordedFrame{}, err
	}
	if len(p) == 0 {
		return recordedFrame{}, fmt.Errorf("empty frame")
	}
	env, err := protocol.DecodeBinaryEnvelope(p)
	return recordedFrame{first: p[0], env: env}, err
}

// recordingServer is a minimal frame-level broker stand-in that records
// every frame it receives and replies OK.
type recordingServer struct {
	ln net.Listener

	mu     sync.Mutex
	frames []recordedFrame
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
	w := protocol.NewFrameWriter(conn)
	for {
		f, err := readRawFrame(conn)
		if err != nil {
			return
		}
		rs.mu.Lock()
		rs.frames = append(rs.frames, f)
		rs.mu.Unlock()
		_ = w.Write(protocol.Envelope{Type: protocol.EnvOK, ID: f.env.ID})
	}
}

func (rs *recordingServer) recorded() []recordedFrame {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]recordedFrame(nil), rs.frames...)
}

// TestClientLoneAndBatchFrames pins the wire's one form in both directions.
// A fresh client's first frame (its consume) is binary; a one-body
// PublishBatch and a one-tag Ack travel as publish_batch / ack_batch, one
// frame per call, and empty calls send nothing. The server's reply is
// binary, and a lone buffered message reaches the consumer as a
// delivery_batch of one that keeps its trace context.
func TestClientLoneAndBatchFrames(t *testing.T) {
	rs := startRecordingServer(t)
	c, err := Dial(rs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := c.AsConn()
	sub, err := conn.Subscribe("q", 8)
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	abc := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	steps := []struct {
		do   func() error
		want protocol.EnvType
	}{
		{func() error { return conn.PublishBatch("q", abc[:1], []trace.Context{tc}) }, protocol.EnvPublishBatch},
		{func() error { return conn.PublishBatch("q", abc, nil) }, protocol.EnvPublishBatch},
		{func() error { return sub.Ack(7) }, protocol.EnvAckBatch},
		{func() error { return sub.Ack(8, 9, 10) }, protocol.EnvAckBatch},
		{func() error { return AckBatchOn(sub, []uint64{11}) }, protocol.EnvAckBatch},
		{func() error { return conn.PublishBatch("q", nil, nil) }, 0},
		{func() error { return sub.Ack() }, 0},
	}
	want := []protocol.EnvType{protocol.EnvConsume}
	for i, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if st.want != 0 {
			want = append(want, st.want)
		}
	}
	frames := rs.recorded()
	var got []protocol.EnvType
	for i, f := range frames {
		if f.first != 0xBF {
			t.Errorf("frame %d (%s) starts with %#x, want 0xBF", i, f.env.Type, f.first)
		}
		got = append(got, f.env.Type)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recorded frames = %v, want %v (one frame per call)", got, want)
	}
	lone := frames[1].env.Bin.(*protocol.PublishBatchBody)
	if len(lone.Bodies) != 1 || len(lone.Traces) != 1 || lone.Traces[0].TraceID != tc.TraceID {
		t.Errorf("one-body publish_batch = %+v, want one body carrying trace %s", lone, tc.TraceID)
	}

	// The server side: a raw connection sees a binary reply to its consume,
	// then the lone message as a delivery_batch of one.
	s, b := newTestServer(t)
	if err := b.Declare("q"); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(10 * time.Second))
	consume := protocol.Envelope{Type: protocol.EnvConsume, ID: "1", Bin: &consumeBody{Queue: "q", Prefetch: 4}}
	if err := protocol.NewFrameWriter(raw).Write(consume); err != nil {
		t.Fatal(err)
	}
	reply, err := readRawFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if reply.first != 0xBF || reply.env.Type != protocol.EnvOK || reply.env.ID != "1" {
		t.Fatalf("consume reply = %#x %s id %q, want 0xBF ok id 1", reply.first, reply.env.Type, reply.env.ID)
	}
	if err := b.PublishBatch("q", [][]byte{[]byte("solo")}, []trace.Context{tc}); err != nil {
		t.Fatal(err)
	}
	d, err := readRawFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := d.env.Bin.(*deliveryBatchBody)
	if d.first != 0xBF || d.env.Type != protocol.EnvDeliveryBatch || len(batch.Items) != 1 {
		t.Fatalf("lone delivery = %#x %s with %d items, want 0xBF delivery_batch of one", d.first, d.env.Type, len(batch.Items))
	}
	if it := batch.Items[0]; string(it.Body) != "solo" || !it.Trace.Valid() || it.Trace.TraceID != tc.TraceID {
		t.Fatalf("delivered item = %q trace %+v, want solo with trace %s", it.Body, it.Trace, tc.TraceID)
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

func (c replyLossConn) PublishBatch(queue string, bodies [][]byte, traces []trace.Context) error {
	err := c.Conn.PublishBatch(queue, bodies, traces)
	if err == nil && c.armed.CompareAndSwap(true, false) {
		return ErrClosed
	}
	return err
}

// TestReconnectingBatchedConnSurvivesRestart runs the server-restart chaos
// drill on the wire the binaries use: a ReconnectingConn keeps publishing
// batches and consuming across a broker front-end restart, a message
// delivered but not acked before the restart comes back flagged
// Redelivered on the new connection, and a batch whose confirmation is lost
// is retried as a unit — the consumer sees the whole batch twice, in order,
// and nothing is lost.
func TestReconnectingBatchedConnSurvivesRestart(t *testing.T) {
	b := New()
	defer b.Close()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()

	var loseReply atomic.Bool
	rc, err := NewReconnecting(func() (Conn, error) {
		c, err := dialBatching(addr, 16)
		if err != nil {
			return nil, err
		}
		return replyLossConn{c.AsConn(), &loseReply}, nil
	})
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

	recv := func(want string, timeout time.Duration) Message {
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
					return m
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

	// Delivered, never acked: the restart's disconnect requeues it.
	if err := rc.PublishBatch("q", [][]byte{[]byte("held")}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.Messages():
		if string(m.Body) != "held" || m.Redelivered {
			t.Fatalf("first delivery = %q (redelivered=%v), want held", m.Body, m.Redelivered)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery of held")
	}

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

	if m := recv("held", 5*time.Second); !m.Redelivered {
		t.Fatal("held came back after the restart without the Redelivered flag")
	}
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
