package broker

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"

	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/trace"
)

// Wire bodies for the framed-TCP broker protocol now live in
// internal/protocol (wire.go) so the binary hot-path codec can encode them
// structurally; the aliases keep the broker's handler code unchanged.

type declareBody = protocol.DeclareBody
type publishBody = protocol.PublishBody
type publishBatchBody = protocol.PublishBatchBody
type consumeBody = protocol.ConsumeBody
type ackBody = protocol.AckBody
type ackBatchBody = protocol.AckBatchBody
type deliveryBody = protocol.DeliveryBody
type deliveryItem = protocol.DeliveryItem
type deliveryBatchBody = protocol.DeliveryBatchBody
type errorBody = protocol.ErrorBody
type okBody = protocol.OKBody

// Server exposes a Broker over framed TCP so that endpoint agents and SDK
// result streams in other processes can reach it.
type Server struct {
	B  *Broker
	ln net.Listener

	// DisableBinary makes the server behave like one that predates the
	// binary hot-path codec: client Bin advertisements are ignored and every
	// reply stays JSON. Used by interop tests; production servers leave it
	// false.
	DisableBinary bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") and serves until
// Close. It returns the server with the bound address available via Addr.
func Serve(b *Broker, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("broker: listen: %w", err)
	}
	s := &Server{B: b, ln: ln, conns: make(map[net.Conn]struct{})}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and disconnects all clients.
func (s *Server) Close() {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// handle serves one client connection. A connection may hold at most one
// consumer per queue; closing the connection requeues unacked deliveries.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := protocol.NewFrameReader(conn)
	w := protocol.NewFrameWriter(conn)
	consumers := make(map[string]*Consumer)
	var wg sync.WaitGroup
	defer func() {
		for _, c := range consumers {
			c.Close()
		}
		wg.Wait()
	}()

	reply := func(id string, err error) {
		if err != nil {
			_ = w.Write(protocol.Envelope{Type: protocol.EnvError, ID: id, Bin: &errorBody{Message: err.Error()}})
			return
		}
		_ = w.Write(protocol.Envelope{Type: protocol.EnvOK, ID: id})
	}
	// negotiated tracks whether this connection's writes use the binary
	// codec. A client advertises Bin on declare/consume when it can decode
	// binary frames; the server (whose reader is always bilingual) confirms
	// with OKBody{Bin:true}, flips its writer, and the client flips its own
	// writer on seeing the confirmation. Old clients never advertise, old
	// servers (DisableBinary) never confirm — both sides stay on JSON.
	negotiated := false
	replyNegotiate := func(id string, advertise bool, err error) {
		if err != nil || !advertise || s.DisableBinary {
			reply(id, err)
			return
		}
		if !negotiated {
			negotiated = true
			w.EnableBinary()
			s.B.Metrics.Counter("codec_binary_conns").Inc()
		}
		_ = w.Write(protocol.Envelope{Type: protocol.EnvOK, ID: id, Bin: &protocol.OKBody{Bin: true}})
	}

	for {
		env, err := r.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				obs.Component("broker").Warn("connection read", "error", err)
			}
			return
		}
		switch env.Type {
		case protocol.EnvDeclare:
			var body declareBody
			if err := env.Decode(&body); err != nil {
				reply(env.ID, err)
				continue
			}
			replyNegotiate(env.ID, body.Bin, s.B.Declare(body.Queue))

		case protocol.EnvPublish:
			var body publishBody
			if err := env.Decode(&body); err != nil {
				reply(env.ID, err)
				continue
			}
			reply(env.ID, s.B.PublishBatch(body.Queue, [][]byte{body.Body}, []*trace.Context{env.Trace}))

		case protocol.EnvPublishBatch:
			var body publishBatchBody
			if err := env.Decode(&body); err != nil {
				reply(env.ID, err)
				continue
			}
			reply(env.ID, s.B.PublishBatch(body.Queue, body.Bodies, body.Traces))

		case protocol.EnvConsume:
			var body consumeBody
			if err := env.Decode(&body); err != nil {
				reply(env.ID, err)
				continue
			}
			if _, dup := consumers[body.Queue]; dup {
				reply(env.ID, fmt.Errorf("broker: already consuming %q on this connection", body.Queue))
				continue
			}
			c, err := s.B.Consume(body.Queue, body.Prefetch)
			if err != nil {
				reply(env.ID, err)
				continue
			}
			consumers[body.Queue] = c
			replyNegotiate(env.ID, body.Bin, nil)
			wg.Add(1)
			go s.deliveryPump(&wg, w, body, c)

		case protocol.EnvAckBatch:
			var body ackBatchBody
			if err := env.Decode(&body); err != nil {
				reply(env.ID, err)
				continue
			}
			c, ok := consumers[body.Queue]
			if !ok {
				reply(env.ID, fmt.Errorf("broker: not consuming %q", body.Queue))
				continue
			}
			reply(env.ID, c.Ack(body.Tags...))

		case protocol.EnvAck, protocol.EnvNack:
			var body ackBody
			if err := env.Decode(&body); err != nil {
				reply(env.ID, err)
				continue
			}
			c, ok := consumers[body.Queue]
			if !ok {
				reply(env.ID, fmt.Errorf("broker: not consuming %q", body.Queue))
				continue
			}
			switch {
			case env.Type == protocol.EnvAck:
				reply(env.ID, c.Ack(body.Tag))
			case body.DeadLetter:
				reply(env.ID, c.Reject(body.Tag))
			default:
				reply(env.ID, c.Nack(body.Tag))
			}

		case protocol.EnvDrain:
			// Cancel an active consume on this connection.
			var body declareBody
			if err := env.Decode(&body); err != nil {
				reply(env.ID, err)
				continue
			}
			c, ok := consumers[body.Queue]
			if !ok {
				reply(env.ID, fmt.Errorf("broker: not consuming %q", body.Queue))
				continue
			}
			c.Close()
			delete(consumers, body.Queue)
			reply(env.ID, nil)

		case protocol.EnvShutdown:
			// Delete a queue broker-wide.
			var body declareBody
			if err := env.Decode(&body); err != nil {
				reply(env.ID, err)
				continue
			}
			delete(consumers, body.Queue) // local consumer (if any) is closed by the broker
			reply(env.ID, s.B.Delete(body.Queue))

		case protocol.EnvHeartbeat:
			reply(env.ID, nil)

		default:
			reply(env.ID, fmt.Errorf("broker: unknown request %q", env.Type))
		}
	}
}

// deliveryPump forwards a consumer's messages onto the connection. For
// batch-enabled consumers it coalesces whatever is already buffered (bounded
// by max_batch) into one delivery_batch frame; a lone message still goes out as a plain delivery,
// so the batched wire path degrades to the classic one at low load.
func (s *Server) deliveryPump(wg *sync.WaitGroup, w *protocol.FrameWriter, opts consumeBody, c *Consumer) {
	defer wg.Done()
	maxBatch := opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 64
	}
	for m := range c.Messages() {
		if !opts.Batch {
			e := protocol.Envelope{Type: protocol.EnvDelivery, Trace: m.Trace, Bin: &deliveryBody{
				Queue: opts.Queue, Tag: m.Tag, Body: m.Body, Redelivered: m.Redelivered,
			}}
			if err := w.Write(e); err != nil {
				c.Close()
				return
			}
			continue
		}
		items := []deliveryItem{{Tag: m.Tag, Body: m.Body, Redelivered: m.Redelivered, Trace: m.Trace}}
		items = drainDeliveries(c, items, maxBatch)
		var e protocol.Envelope
		if len(items) == 1 {
			e = protocol.Envelope{Type: protocol.EnvDelivery, Trace: m.Trace, Bin: &deliveryBody{
				Queue: opts.Queue, Tag: m.Tag, Body: m.Body, Redelivered: m.Redelivered,
			}}
		} else {
			e = protocol.Envelope{Type: protocol.EnvDeliveryBatch, Bin: &deliveryBatchBody{
				Queue: opts.Queue, Items: items,
			}}
		}
		if err := w.Write(e); err != nil {
			c.Close()
			return
		}
	}
}

// drainDeliveries appends already-buffered messages to items up to maxBatch.
func drainDeliveries(c *Consumer, items []deliveryItem, maxBatch int) []deliveryItem {
	for len(items) < maxBatch {
		select {
		case m, ok := <-c.Messages():
			if !ok {
				return items
			}
			items = append(items, deliveryItem{Tag: m.Tag, Body: m.Body, Redelivered: m.Redelivered, Trace: m.Trace})
		default:
			return items
		}
	}
	return items
}

// requestID generates connection-local correlation IDs for the client.
type requestID struct {
	mu sync.Mutex
	n  uint64
}

func (r *requestID) next() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	return strconv.FormatUint(r.n, 10)
}
