package broker

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/trace"
)

// BatchConfig sizes the delivery batches a client asks the server for (see
// docs/PERFORMANCE.md). Publishes and acks are batched by the caller:
// PublishBatch and Ack take N items and send one frame.
type BatchConfig struct {
	// MaxBatch bounds deliveries per delivery_batch frame (default 64). The
	// server coalesces only what is already buffered for the consumer, so a
	// lone message still arrives at once as a plain delivery.
	MaxBatch int
}

// Client is a TCP connection to a broker Server. It multiplexes
// request/reply exchanges and consumer delivery streams over one socket,
// the way the Globus Compute agent holds a single AMQPS connection.
type Client struct {
	conn net.Conn
	w    *protocol.FrameWriter
	ids  requestID

	mu       sync.Mutex
	pending  map[string]chan error
	streams  map[string]*RemoteConsumer
	closed   bool
	closeErr error

	// wantBin (EnableBinary) advertises the binary codec on every declare/
	// consume; binOK flips when the server confirms, after which the writer
	// emits binary frames. Readers are always bilingual.
	wantBin bool
	binOK   bool

	// maxBatch, when > 0 (EnableBatching), makes every Consume ask for
	// delivery_batch frames of up to that many messages.
	maxBatch int
}

// newClient wraps an established connection (plain or TLS).
func newClient(conn net.Conn) *Client {
	return &Client{
		conn:    conn,
		w:       protocol.NewFrameWriter(conn),
		pending: make(map[string]chan error),
		streams: make(map[string]*RemoteConsumer),
	}
}

// Dial connects to a broker server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("broker: dial %s: %w", addr, err)
	}
	c := newClient(conn)
	go c.readLoop()
	return c, nil
}

// EnableBatching makes consumers opened on this client ask the server for
// delivery_batch frames of up to cfg.MaxBatch messages. Call before Consume.
// A server that predates the consume.batch field ignores it and keeps
// sending plain deliveries.
func (c *Client) EnableBatching(cfg BatchConfig) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	c.mu.Lock()
	c.maxBatch = cfg.MaxBatch
	c.mu.Unlock()
}

// EnableBinary opts this client into the binary hot-path codec. Call before
// issuing traffic: each Declare/Consume advertises the capability, and the
// writer switches to binary frames once the server confirms (old servers
// ignore the advertisement and the connection stays JSON). The negotiated
// codec applies to batch frames too.
func (c *Client) EnableBinary() {
	c.mu.Lock()
	c.wantBin = true
	c.mu.Unlock()
}

// BinaryNegotiated reports whether the server confirmed the binary codec
// for this connection.
func (c *Client) BinaryNegotiated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.binOK
}

// Close disconnects. Server-side, unacked deliveries are requeued.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

func (c *Client) readLoop() {
	r := protocol.NewFrameReader(c.conn)
	var err error
	for {
		var env protocol.Envelope
		env, err = r.Read()
		if err != nil {
			break
		}
		switch env.Type {
		case protocol.EnvOK:
			// A non-empty OK body is the server's codec confirmation: flip
			// the writer to binary before completing the request so the next
			// frame out already uses the negotiated codec.
			if env.Bin != nil || len(env.Body) > 0 {
				var ok okBody
				if derr := env.Decode(&ok); derr == nil && ok.Bin {
					c.w.EnableBinary()
					c.mu.Lock()
					c.binOK = true
					c.mu.Unlock()
				}
			}
			c.complete(env.ID, nil)
		case protocol.EnvError:
			var body errorBody
			msg := "unknown broker error"
			if derr := env.Decode(&body); derr == nil {
				msg = body.Message
			}
			c.complete(env.ID, errors.New(msg))
		case protocol.EnvDelivery:
			var body deliveryBody
			if derr := env.Decode(&body); derr != nil {
				continue
			}
			// The send happens under the lock so Cancel's close of the
			// channel cannot race it; the buffer (prefetch+1) exceeds the
			// server's delivery window, so the send never blocks.
			c.mu.Lock()
			if rc := c.streams[body.Queue]; rc != nil {
				rc.ch <- Message{Tag: body.Tag, Body: body.Body, Redelivered: body.Redelivered, Trace: env.Trace}
			}
			c.mu.Unlock()
		case protocol.EnvDeliveryBatch:
			var body deliveryBatchBody
			if derr := env.Decode(&body); derr != nil {
				continue
			}
			// Batched deliveries stay within the consumer's prefetch window,
			// so like the single-delivery case these sends never block.
			c.mu.Lock()
			if rc := c.streams[body.Queue]; rc != nil {
				for _, it := range body.Items {
					rc.ch <- Message{Tag: it.Tag, Body: it.Body, Redelivered: it.Redelivered, Trace: it.Trace}
				}
			}
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	c.closed = true
	c.closeErr = err
	for id, ch := range c.pending {
		ch <- fmt.Errorf("broker: connection lost: %w", err)
		delete(c.pending, id)
	}
	for q, rc := range c.streams {
		close(rc.ch)
		delete(c.streams, q)
	}
	c.mu.Unlock()
}

func (c *Client) complete(id string, err error) {
	c.mu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if ok {
		ch <- err
	}
}

// call sends a request and waits for its ok/error reply.
func (c *Client) call(typ string, body any) error {
	return c.callTraced(typ, body, nil)
}

// callTraced is call with a trace context attached to the request envelope.
func (c *Client) callTraced(typ string, body any, tc *trace.Context) error {
	id := c.ids.next()
	ch := make(chan error, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.pending[id] = ch
	c.mu.Unlock()

	// The body rides as Envelope.Bin: a binary-negotiated writer encodes it
	// structurally; a JSON writer marshals it through a pooled scratch
	// buffer — the wire bytes there are identical to the old
	// NewEnvelope(json.Marshal) path.
	env := protocol.Envelope{Type: typ, ID: id, Trace: tc, Bin: body}
	if err := c.w.Write(env); err != nil {
		c.complete(id, nil)
		return fmt.Errorf("broker: send %s: %w", typ, err)
	}
	// A stopped timer, not time.After: under go.mod's pre-1.23 timer rules an
	// unstopped timer stays reachable until it fires, so every publish and ack
	// would pin one for 30 s.
	t := time.NewTimer(30 * time.Second)
	defer t.Stop()
	select {
	case err := <-ch:
		return err
	case <-t.C:
		return fmt.Errorf("broker: %s timed out", typ)
	}
}

// advertiseBin reports whether declare/consume requests should advertise
// the binary codec.
func (c *Client) advertiseBin() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wantBin
}

// Declare creates a queue on the remote broker.
func (c *Client) Declare(queue string) error {
	return c.call(protocol.EnvDeclare, &declareBody{Queue: queue, Bin: c.advertiseBin()})
}

// Publish appends one body to the remote queue: a batch of one.
func (c *Client) Publish(queue string, body []byte) error {
	return c.PublishBatch(queue, [][]byte{body}, nil)
}

// PublishBatch sends bodies to one queue in a single frame and waits for the
// broker's single confirmation. traces may be nil or parallel to bodies; the
// server propagates each context to its delivery. This is the one place that
// knows the wire's lone-message rule: one body travels as the plain publish
// envelope (its trace on the envelope), N as one publish_batch.
func (c *Client) PublishBatch(queue string, bodies [][]byte, traces []*trace.Context) error {
	switch len(bodies) {
	case 0:
		return nil
	case 1:
		var tc *trace.Context
		if len(traces) > 0 {
			tc = traces[0]
		}
		return c.callTraced(protocol.EnvPublish, &publishBody{Queue: queue, Body: bodies[0]}, tc)
	}
	return c.call(protocol.EnvPublishBatch, &publishBatchBody{Queue: queue, Bodies: bodies, Traces: traces})
}

// Ping round-trips a heartbeat.
func (c *Client) Ping() error {
	return c.call(protocol.EnvHeartbeat, nil)
}

// DeleteQueue removes a queue on the remote broker, dropping its messages
// and closing its consumers.
func (c *Client) DeleteQueue(queue string) error {
	return c.call(protocol.EnvShutdown, &declareBody{Queue: queue})
}

// RemoteConsumer mirrors Consumer for a TCP client — a delivery channel plus
// Ack/Nack that round-trip to the server — and is the TCP Subscription.
type RemoteConsumer struct {
	c     *Client
	queue string
	ch    chan Message
}

// Consume begins consuming the remote queue. Only one consumer per queue per
// client connection is permitted (the server enforces this). After
// EnableBatching the consumer opts into delivery_batch frames from the server.
func (c *Client) Consume(queue string, prefetch int) (*RemoteConsumer, error) {
	if prefetch <= 0 {
		prefetch = 1
	}
	rc := &RemoteConsumer{c: c, queue: queue, ch: make(chan Message, prefetch+1)}
	c.mu.Lock()
	if _, dup := c.streams[queue]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("broker: already consuming %q", queue)
	}
	c.streams[queue] = rc
	maxBatch := c.maxBatch
	c.mu.Unlock()
	req := &consumeBody{Queue: queue, Prefetch: prefetch, Bin: c.advertiseBin(),
		Batch: maxBatch > 0, MaxBatch: maxBatch}
	if err := c.call(protocol.EnvConsume, req); err != nil {
		c.mu.Lock()
		delete(c.streams, queue)
		c.mu.Unlock()
		return nil, err
	}
	return rc, nil
}

// Messages returns the delivery channel; it closes when the connection
// drops.
func (rc *RemoteConsumer) Messages() <-chan Message { return rc.ch }

// Ack acknowledges deliveries by tag in one frame and one broker lock round
// trip: one tag travels as the plain ack envelope, N as one ack_batch.
func (rc *RemoteConsumer) Ack(tags ...uint64) error {
	switch len(tags) {
	case 0:
		return nil
	case 1:
		return rc.c.call(protocol.EnvAck, &ackBody{Queue: rc.queue, Tag: tags[0]})
	}
	return rc.c.call(protocol.EnvAckBatch, &ackBatchBody{Queue: rc.queue, Tags: tags})
}

// Nack rejects a delivery; the server requeues it.
func (rc *RemoteConsumer) Nack(tag uint64) error {
	return rc.c.call(protocol.EnvNack, &ackBody{Queue: rc.queue, Tag: tag})
}

// Reject dead-letters a delivery to "<queue>.dlq" on the server.
func (rc *RemoteConsumer) Reject(tag uint64) error {
	return rc.c.call(protocol.EnvNack, &ackBody{Queue: rc.queue, Tag: tag, DeadLetter: true})
}

// Cancel stops consuming: the server detaches the consumer (requeueing
// anything unacknowledged) and the local delivery channel closes.
func (rc *RemoteConsumer) Cancel() error {
	err := rc.c.call(protocol.EnvDrain, &declareBody{Queue: rc.queue})
	rc.c.mu.Lock()
	if _, ok := rc.c.streams[rc.queue]; ok {
		delete(rc.c.streams, rc.queue)
		close(rc.ch)
	}
	rc.c.mu.Unlock()
	return err
}
