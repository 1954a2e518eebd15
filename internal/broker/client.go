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

// BatchConfig tunes client-side wire batching (see docs/PERFORMANCE.md).
// Batching is transparent to callers: Publish/Ack keep their signatures and
// semantics; concurrent calls are coalesced into publish_batch / ack_batch
// frames by a group-commit flusher.
type BatchConfig struct {
	// MaxBatch bounds messages per batch frame (default 64). Flushing is
	// pure group commit: the first message flushes immediately and whatever
	// arrives while its reply is in flight forms the next batch — no added
	// latency at low load, large batches at saturation.
	MaxBatch int
}

func (bc BatchConfig) withDefaults() BatchConfig {
	if bc.MaxBatch <= 0 {
		bc.MaxBatch = 64
	}
	return bc
}

// pendingPub is one Publish waiting inside the flusher queue.
type pendingPub struct {
	queue string
	body  []byte
	tc    *trace.Context
	done  chan error
}

// pendingAck is one Ack waiting inside the flusher queue.
type pendingAck struct {
	queue string
	tag   uint64
	done  chan error
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

	// Wire batching (EnableBatching). pubQ/ackQ are guarded by mu; flushCh
	// wakes the flusher; done stops it.
	batch   *BatchConfig
	pubQ    []pendingPub
	ackQ    []pendingAck
	flushCh chan struct{}
	done    chan struct{}
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

// DialBatched is Dial with wire batching enabled.
func DialBatched(addr string, cfg BatchConfig) (*Client, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	c.EnableBatching(cfg)
	return c, nil
}

// EnableBatching turns on wire batching for publishes, acks, and deliveries
// on this client. Call before issuing traffic; enabling twice is a no-op.
// The server must understand batch envelopes (same-version server); against
// an old server, leave batching off — every frame the unbatched client sends
// is unchanged.
func (c *Client) EnableBatching(cfg BatchConfig) {
	cfg = cfg.withDefaults()
	c.mu.Lock()
	if c.batch != nil || c.closed {
		c.mu.Unlock()
		return
	}
	c.batch = &cfg
	flushCh := make(chan struct{}, 1)
	done := make(chan struct{})
	c.flushCh, c.done = flushCh, done
	c.mu.Unlock()
	go c.flusher(cfg, flushCh, done)
}

// EnableBinary opts this client into the binary hot-path codec. Call before
// issuing traffic: each Declare/Consume advertises the capability, and the
// writer switches to binary frames once the server confirms (old servers
// ignore the advertisement and the connection stays JSON). Safe to combine
// with EnableBatching; the negotiated codec applies to batch frames too.
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
	c.stopFlusher()
	return c.conn.Close()
}

// stopFlusher shuts the batching flusher down exactly once (idempotent; a
// no-op when batching was never enabled).
func (c *Client) stopFlusher() {
	c.mu.Lock()
	done := c.done
	c.done = nil
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
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
	c.stopFlusher()
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
	select {
	case err := <-ch:
		return err
	case <-time.After(30 * time.Second):
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

// Publish appends body to the remote queue.
func (c *Client) Publish(queue string, body []byte) error {
	return c.PublishTraced(queue, body, nil)
}

// PublishTraced appends body to the remote queue with a trace context on
// the publish envelope; the server propagates it to the delivery. With
// batching enabled the publish may be coalesced with concurrent ones into a
// publish_batch frame; the call still blocks until the broker confirms.
func (c *Client) PublishTraced(queue string, body []byte, tc *trace.Context) error {
	c.mu.Lock()
	batching := c.batch != nil && !c.closed
	c.mu.Unlock()
	if batching {
		return c.enqueuePub(queue, body, tc)
	}
	return c.callTraced(protocol.EnvPublish, &publishBody{Queue: queue, Body: body}, tc)
}

// PublishBatch sends every body to one queue in a single publish_batch
// frame and waits for the broker's single confirmation. traces may be nil
// or parallel to bodies.
func (c *Client) PublishBatch(queue string, bodies [][]byte, traces []*trace.Context) error {
	if len(bodies) == 0 {
		return nil
	}
	return c.call(protocol.EnvPublishBatch, &publishBatchBody{Queue: queue, Bodies: bodies, Traces: traces})
}

// enqueuePub hands a publish to the flusher and waits for its completion.
func (c *Client) enqueuePub(queue string, body []byte, tc *trace.Context) error {
	p := pendingPub{queue: queue, body: body, tc: tc, done: make(chan error, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.pubQ = append(c.pubQ, p)
	flushCh := c.flushCh
	c.mu.Unlock()
	signalFlush(flushCh)
	select {
	case err := <-p.done:
		return err
	case <-time.After(30 * time.Second):
		return fmt.Errorf("broker: batched publish timed out")
	}
}

// enqueueAck hands an ack to the flusher and waits for its completion.
func (c *Client) enqueueAck(queue string, tag uint64) error {
	a := pendingAck{queue: queue, tag: tag, done: make(chan error, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.ackQ = append(c.ackQ, a)
	flushCh := c.flushCh
	c.mu.Unlock()
	signalFlush(flushCh)
	select {
	case err := <-a.done:
		return err
	case <-time.After(30 * time.Second):
		return fmt.Errorf("broker: batched ack timed out")
	}
}

func signalFlush(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default: // a flush is already pending
	}
}

// flusher is the group-commit loop: each wakeup drains everything queued,
// groups it by queue, and sends publish_batch / ack_batch frames (a lone
// message degrades to a plain publish/ack — identical to the unbatched
// wire). While a batch's reply is in flight new calls accumulate, so batch
// size adapts to offered load.
func (c *Client) flusher(cfg BatchConfig, flushCh chan struct{}, done chan struct{}) {
	for {
		select {
		case <-done:
			c.failQueued(ErrClosed)
			return
		case <-flushCh:
		}
		for {
			c.mu.Lock()
			pubs, acks := c.pubQ, c.ackQ
			c.pubQ, c.ackQ = nil, nil
			c.mu.Unlock()
			if len(pubs) == 0 && len(acks) == 0 {
				break
			}
			c.flushPubs(pubs, cfg.MaxBatch)
			c.flushAcks(acks, cfg.MaxBatch)
		}
	}
}

// failQueued completes every queued-but-unsent operation with err.
func (c *Client) failQueued(err error) {
	c.mu.Lock()
	pubs, acks := c.pubQ, c.ackQ
	c.pubQ, c.ackQ = nil, nil
	c.mu.Unlock()
	for _, p := range pubs {
		p.done <- err
	}
	for _, a := range acks {
		a.done <- err
	}
}

// flushPubs sends queued publishes grouped by queue, chunked at maxBatch,
// preserving per-queue FIFO order.
func (c *Client) flushPubs(pubs []pendingPub, maxBatch int) {
	byQueue := make(map[string][]pendingPub)
	var order []string
	for _, p := range pubs {
		if _, ok := byQueue[p.queue]; !ok {
			order = append(order, p.queue)
		}
		byQueue[p.queue] = append(byQueue[p.queue], p)
	}
	for _, q := range order {
		group := byQueue[q]
		for len(group) > 0 {
			n := len(group)
			if n > maxBatch {
				n = maxBatch
			}
			chunk := group[:n]
			group = group[n:]
			if n == 1 {
				chunk[0].done <- c.callTraced(protocol.EnvPublish, &publishBody{Queue: q, Body: chunk[0].body}, chunk[0].tc)
				continue
			}
			bodies := make([][]byte, n)
			var traces []*trace.Context
			for i, p := range chunk {
				bodies[i] = p.body
				if p.tc != nil && traces == nil {
					traces = make([]*trace.Context, n)
				}
			}
			if traces != nil {
				for i, p := range chunk {
					traces[i] = p.tc
				}
			}
			err := c.call(protocol.EnvPublishBatch, &publishBatchBody{Queue: q, Bodies: bodies, Traces: traces})
			for _, p := range chunk {
				p.done <- err
			}
		}
	}
}

// flushAcks sends queued acks grouped by queue, chunked at maxBatch.
func (c *Client) flushAcks(acks []pendingAck, maxBatch int) {
	byQueue := make(map[string][]pendingAck)
	var order []string
	for _, a := range acks {
		if _, ok := byQueue[a.queue]; !ok {
			order = append(order, a.queue)
		}
		byQueue[a.queue] = append(byQueue[a.queue], a)
	}
	for _, q := range order {
		group := byQueue[q]
		for len(group) > 0 {
			n := len(group)
			if n > maxBatch {
				n = maxBatch
			}
			chunk := group[:n]
			group = group[n:]
			if n == 1 {
				chunk[0].done <- c.call(protocol.EnvAck, &ackBody{Queue: q, Tag: chunk[0].tag})
				continue
			}
			tags := make([]uint64, n)
			for i, a := range chunk {
				tags[i] = a.tag
			}
			err := c.call(protocol.EnvAckBatch, &ackBatchBody{Queue: q, Tags: tags})
			for _, a := range chunk {
				a.done <- err
			}
		}
	}
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

// RemoteConsumer mirrors Consumer for a TCP client: a delivery channel plus
// Ack/Nack that round-trip to the server.
type RemoteConsumer struct {
	c     *Client
	queue string
	ch    chan Message
}

// Consume begins consuming the remote queue. Only one consumer per queue per
// client connection is permitted (the server enforces this). When batching
// is enabled the consumer opts into delivery_batch frames from the server.
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
	batch := c.batch
	c.mu.Unlock()
	req := &consumeBody{Queue: queue, Prefetch: prefetch, Bin: c.advertiseBin()}
	if batch != nil {
		req.Batch = true
		req.MaxBatch = batch.MaxBatch
	}
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

// Ack acknowledges a delivery by tag. With batching enabled, concurrent
// acks coalesce into ack_batch frames.
func (rc *RemoteConsumer) Ack(tag uint64) error {
	rc.c.mu.Lock()
	batching := rc.c.batch != nil && !rc.c.closed
	rc.c.mu.Unlock()
	if batching {
		return rc.c.enqueueAck(rc.queue, tag)
	}
	return rc.c.call(protocol.EnvAck, &ackBody{Queue: rc.queue, Tag: tag})
}

// AckBatch acknowledges many tags in one ack_batch frame and one broker
// lock round trip.
func (rc *RemoteConsumer) AckBatch(tags []uint64) error {
	if len(tags) == 0 {
		return nil
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
