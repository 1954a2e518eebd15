package broker

import (
	"testing"
	"time"

	"globuscompute/internal/trace"
)

func tracedBroker(t *testing.T) (*Broker, *trace.Collector) {
	t.Helper()
	b := New()
	col := trace.NewCollector(128)
	b.Tracer = trace.NewTracer("broker", col)
	t.Cleanup(b.Close)
	return b, col
}

func recvWithin(t *testing.T, ch <-chan Message, d time.Duration) Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatal("consumer channel closed")
		}
		return m
	case <-time.After(d):
		t.Fatal("timed out waiting for delivery")
		return Message{}
	}
}

// spansNamed filters the collector for spans with the given name.
func spansNamed(col *trace.Collector, name string) []trace.Span {
	var out []trace.Span
	for _, s := range col.Snapshot() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func TestDeliveryCarriesTraceContext(t *testing.T) {
	b, col := tracedBroker(t)
	if err := b.Declare("tasks.ep"); err != nil {
		t.Fatal(err)
	}
	c, err := b.Consume("tasks.ep", 1)
	if err != nil {
		t.Fatal(err)
	}
	pub := trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	if err := b.PublishBatch("tasks.ep", [][]byte{[]byte("x")}, []trace.Context{pub}); err != nil {
		t.Fatal(err)
	}
	m := recvWithin(t, c.Messages(), 2*time.Second)
	if !m.Trace.Valid() || m.Trace.TraceID != pub.TraceID {
		t.Fatalf("delivery trace = %+v, want trace %s", m.Trace, pub.TraceID)
	}
	// The delivered context is the transit span, not the publisher's span:
	// downstream stages chain off broker.deliver.
	if m.Trace.SpanID == pub.SpanID {
		t.Error("delivery context still points at publisher span")
	}
	deliver := spansNamed(col, "broker.deliver")
	if len(deliver) != 1 {
		t.Fatalf("%d broker.deliver spans, want 1", len(deliver))
	}
	if deliver[0].Parent != pub.SpanID || deliver[0].Attrs["queue"] != "tasks.ep" {
		t.Errorf("deliver span %+v not parented on publish context", deliver[0])
	}
	if err := c.Ack(m.Tag); err != nil {
		t.Fatal(err)
	}
}

func TestCloseRequeuePreservesTraceAndRecordsRequeue(t *testing.T) {
	b, col := tracedBroker(t)
	if err := b.Declare("q"); err != nil {
		t.Fatal(err)
	}
	c, err := b.Consume("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	pub := trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	if err := b.PublishBatch("q", [][]byte{[]byte("poisonish")}, []trace.Context{pub}); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, c.Messages(), 2*time.Second)
	c.Close() // requeues the unacked delivery
	c2, err := b.Consume("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	second := recvWithin(t, c2.Messages(), 2*time.Second)
	if !second.Redelivered {
		t.Error("redelivery not flagged")
	}
	if !second.Trace.Valid() || second.Trace.TraceID != pub.TraceID {
		t.Fatalf("redelivered trace = %+v, want original trace %s", second.Trace, pub.TraceID)
	}
	req := spansNamed(col, "requeue")
	if len(req) != 1 {
		t.Fatalf("%d requeue spans, want 1", len(req))
	}
	if req[0].TraceID != pub.TraceID || req[0].Attrs["reason"] != "disconnect" || req[0].Attrs["queue"] != "q" {
		t.Errorf("requeue span %+v", req[0])
	}
	// Both deliveries recorded transit spans under the same trace.
	if d := spansNamed(col, "broker.deliver"); len(d) != 2 ||
		d[0].TraceID != pub.TraceID || d[1].TraceID != pub.TraceID {
		t.Errorf("deliver spans = %+v", d)
	}
	if err := c2.Ack(second.Tag); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectRequeuePreservesTrace(t *testing.T) {
	b := New()
	col := trace.NewCollector(128)
	b.Tracer = trace.NewTracer("broker", col)
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})
	if err := b.Declare("tasks.ep"); err != nil {
		t.Fatal(err)
	}

	// First consumer connects over TCP, receives the message, and drops
	// without acking — the broker must requeue with the original trace.
	c1, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rc1, err := c1.Consume("tasks.ep", 1)
	if err != nil {
		t.Fatal(err)
	}
	pub := trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	if err := b.PublishBatch("tasks.ep", [][]byte{[]byte("task")}, []trace.Context{pub}); err != nil {
		t.Fatal(err)
	}
	m1 := recvWithin(t, rc1.Messages(), 2*time.Second)
	if !m1.Trace.Valid() || m1.Trace.TraceID != pub.TraceID {
		t.Fatalf("TCP delivery trace = %+v, want %s", m1.Trace, pub.TraceID)
	}
	c1.Close() // abandon unacked message

	// Reconnect: the requeued message arrives, redelivered, same trace.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, _ := b.Unacked("tasks.ep"); n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("message never requeued after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c2, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rc2, err := c2.Consume("tasks.ep", 1)
	if err != nil {
		t.Fatal(err)
	}
	m2 := recvWithin(t, rc2.Messages(), 2*time.Second)
	if !m2.Redelivered {
		t.Error("redelivery not flagged after reconnect")
	}
	if !m2.Trace.Valid() || m2.Trace.TraceID != pub.TraceID {
		t.Fatalf("post-reconnect trace = %+v, want original %s", m2.Trace, pub.TraceID)
	}
	if err := rc2.Ack(m2.Tag); err != nil {
		t.Fatal(err)
	}

	req := spansNamed(col, "requeue")
	if len(req) != 1 || req[0].TraceID != pub.TraceID || req[0].Attrs["reason"] != "disconnect" {
		t.Fatalf("requeue spans = %+v", req)
	}
}

func TestRejectPreservesTraceInDLQ(t *testing.T) {
	b, col := tracedBroker(t)
	if err := b.Declare("q"); err != nil {
		t.Fatal(err)
	}
	c, err := b.Consume("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	pub := trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	if err := b.PublishBatch("q", [][]byte{[]byte("poison")}, []trace.Context{pub}); err != nil {
		t.Fatal(err)
	}
	m := recvWithin(t, c.Messages(), 2*time.Second)
	if err := c.Reject(m.Tag); err != nil {
		t.Fatal(err)
	}
	dc, err := b.Consume("q"+DeadLetterSuffix, 1)
	if err != nil {
		t.Fatal(err)
	}
	dm := recvWithin(t, dc.Messages(), 2*time.Second)
	if !dm.Trace.Valid() || dm.Trace.TraceID != pub.TraceID {
		t.Fatalf("dead-lettered trace = %+v, want %s", dm.Trace, pub.TraceID)
	}
	if d := spansNamed(col, "broker.deliver"); len(d) != 2 {
		t.Errorf("%d deliver spans, want 2 (queue + dlq)", len(d))
	}
	if err := dc.Ack(dm.Tag); err != nil {
		t.Fatal(err)
	}
}
