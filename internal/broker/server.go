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
)

// Wire bodies for the framed-TCP broker protocol live in internal/protocol
// (wire.go) so the binary codec can encode them structurally; the aliases
// keep the broker's handler code short.

type declareBody = protocol.DeclareBody
type publishBatchBody = protocol.PublishBatchBody
type consumeBody = protocol.ConsumeBody
type ackBody = protocol.AckBody
type ackBatchBody = protocol.AckBatchBody
type deliveryItem = protocol.DeliveryItem
type deliveryBatchBody = protocol.DeliveryBatchBody
type errorBody = protocol.ErrorBody

// Server exposes a Broker over framed TCP so that endpoint agents and SDK
// result streams in other processes can reach it.
type Server struct {
	B  *Broker
	ln net.Listener

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
// consumer per queue; closing the connection requeues unacked deliveries. A
// frame that is not a binary envelope ends the connection.
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
			reply(env.ID, s.B.Declare(body.Queue))

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
			reply(env.ID, nil)
			wg.Add(1)
			go s.deliveryPump(&wg, w, body.Queue, c)

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

		case protocol.EnvNack:
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
			if body.DeadLetter {
				reply(env.ID, c.Reject(body.Tag))
			} else {
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

// MaxDeliveryBatch caps deliveries per delivery_batch frame. The
// consumer's prefetch window bounds a frame too, so a consumer whose window
// is one frame (the endpoint agent's default) takes whole frames.
const MaxDeliveryBatch = 64

// deliveryPump forwards a consumer's messages onto the connection, each
// frame a delivery_batch of whatever is already buffered: at idle a batch
// of one, so batching adds no wait. The frame's item slice lives as long as
// the pump; after each write its used prefix is cleared, so no body stays
// referenced once its frame is on the wire.
func (s *Server) deliveryPump(wg *sync.WaitGroup, w *protocol.FrameWriter, queue string, c *Consumer) {
	defer wg.Done()
	body := &deliveryBatchBody{Queue: queue, Items: make([]deliveryItem, 0, MaxDeliveryBatch)}
	for m := range c.Messages() {
		body.Items = drainDeliveries(c, append(body.Items, deliveryItemOf(m)))
		err := w.Write(protocol.Envelope{Type: protocol.EnvDeliveryBatch, Bin: body})
		clear(body.Items)
		body.Items = body.Items[:0]
		if err != nil {
			c.Close()
			return
		}
	}
}

func deliveryItemOf(m Message) deliveryItem {
	return deliveryItem{Tag: m.Tag, Body: m.Body, Redelivered: m.Redelivered, Trace: m.Trace}
}

// drainDeliveries appends already-buffered messages to items up to
// MaxDeliveryBatch.
func drainDeliveries(c *Consumer, items []deliveryItem) []deliveryItem {
	for len(items) < MaxDeliveryBatch {
		select {
		case m, ok := <-c.Messages():
			if !ok {
				return items
			}
			items = append(items, deliveryItemOf(m))
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
