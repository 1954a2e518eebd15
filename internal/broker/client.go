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

// BatchConfig is the empty argument of the no-op EnableBatching.
type BatchConfig struct{}

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

// EnableBatching does nothing: every connection speaks binary, batched
// frames from its first byte. It and EnableBinary remain only because
// benchmark/ calls them; ROADMAP item 1(c) deletes both with BatchConfig.
func (c *Client) EnableBatching(BatchConfig) {}

// EnableBinary does nothing; see EnableBatching.
func (c *Client) EnableBinary() {}

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
			c.complete(env.ID, nil)
		case protocol.EnvError:
			c.complete(env.ID, errors.New(env.Bin.(*errorBody).Message))
		case protocol.EnvDeliveryBatch:
			body := env.Bin.(*deliveryBatchBody)
			// The sends happen under the lock so Cancel's close of the
			// channel cannot race them; the buffer (prefetch+1) exceeds the
			// server's delivery window, so they never block.
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
func (c *Client) call(typ protocol.EnvType, body any) error {
	id := c.ids.next()
	ch := make(chan error, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.w.Write(protocol.Envelope{Type: typ, ID: id, Bin: body}); err != nil {
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

// Declare creates a queue on the remote broker.
func (c *Client) Declare(queue string) error {
	return c.call(protocol.EnvDeclare, &declareBody{Queue: queue})
}

// PublishBatch sends bodies to one queue in one publish_batch frame and
// waits for the broker's single confirmation; no bodies send nothing.
// traces may be nil or parallel to bodies; the server propagates each
// context to its delivery.
func (c *Client) PublishBatch(queue string, bodies [][]byte, traces []trace.Context) error {
	if len(bodies) == 0 {
		return nil
	}
	return c.call(protocol.EnvPublishBatch, &publishBatchBody{Queue: queue, Bodies: bodies, Traces: traces})
}

// Delete removes a queue on the remote broker, dropping its messages and
// closing its consumers.
func (c *Client) Delete(queue string) error {
	return c.call(protocol.EnvDelete, &declareBody{Queue: queue})
}

// RemoteConsumer mirrors Consumer for a TCP client — a delivery channel plus
// Ack/Reject that round-trip to the server — and is the TCP Subscription.
type RemoteConsumer struct {
	c     *Client
	queue string
	ch    chan Message
}

// Consume begins consuming the remote queue. Only one consumer per queue per
// client connection is permitted (the server enforces this).
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
	c.mu.Unlock()
	if err := c.call(protocol.EnvConsume, &consumeBody{Queue: queue, Prefetch: prefetch}); err != nil {
		c.mu.Lock()
		delete(c.streams, queue)
		c.mu.Unlock()
		return nil, err
	}
	return rc, nil
}

// Subscribe is Consume behind the Subscription interface.
func (c *Client) Subscribe(queue string, prefetch int) (Subscription, error) {
	rc, err := c.Consume(queue, prefetch)
	if err != nil {
		return nil, fmt.Errorf("broker: subscribe %q: %w", queue, err)
	}
	return rc, nil
}

// AsConn returns the client as a Conn.
func (c *Client) AsConn() Conn { return c }

// Messages returns the delivery channel; it closes when the connection
// drops.
func (rc *RemoteConsumer) Messages() <-chan Message { return rc.ch }

// Ack acknowledges deliveries by tag in one ack_batch frame and one broker
// lock round trip; no tags send nothing.
func (rc *RemoteConsumer) Ack(tags ...uint64) error {
	if len(tags) == 0 {
		return nil
	}
	return rc.c.call(protocol.EnvAckBatch, &ackBatchBody{Queue: rc.queue, Tags: tags})
}

// Reject dead-letters a delivery to "<queue>.dlq" on the server.
func (rc *RemoteConsumer) Reject(tag uint64) error {
	return rc.c.call(protocol.EnvReject, &rejectBody{Queue: rc.queue, Tag: tag})
}

// Cancel stops consuming: the server detaches the consumer (requeueing
// anything unacknowledged) and the local delivery channel closes.
func (rc *RemoteConsumer) Cancel() error {
	err := rc.c.call(protocol.EnvCancel, &declareBody{Queue: rc.queue})
	rc.c.mu.Lock()
	if _, ok := rc.c.streams[rc.queue]; ok {
		delete(rc.c.streams, rc.queue)
		close(rc.ch)
	}
	rc.c.mu.Unlock()
	return err
}
