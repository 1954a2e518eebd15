package broker

import "globuscompute/internal/trace"

// Conn abstracts a broker connection so components (endpoint agents, the
// MEP, the SDK result stream) work identically against an in-process Broker
// or a TCP Client. The batch form is the operation: one message is a batch
// of one.
type Conn interface {
	Declare(queue string) error
	// PublishBatch appends bodies to queue in one round trip; the batch lands
	// or fails as a unit. traces is nil or parallel to bodies: each context
	// rides with its message so consumers can continue the publisher's trace.
	PublishBatch(queue string, bodies [][]byte, traces []trace.Context) error
	Subscribe(queue string, prefetch int) (Subscription, error)
	// Delete removes a queue, dropping pending messages (used to clean up
	// per-executor group queues and deregistered endpoints).
	Delete(queue string) error
}

// Subscription is a cancellable consumer.
type Subscription interface {
	Messages() <-chan Message
	// Ack acknowledges every tag in one round trip. Unknown tags (stale after
	// a reconnect) are skipped and reported in the error after the valid ones
	// are acked; their messages simply redeliver.
	Ack(tags ...uint64) error
	// Reject dead-letters a poison message to "<queue>.dlq".
	Reject(tag uint64) error
	// Cancel detaches the consumer; unacknowledged messages requeue.
	Cancel() error
}

// PublishBatchOn and AckBatchOn are the function spellings of
// Conn.PublishBatch and Subscription.Ack that benchmark/ calls.
func PublishBatchOn(c Conn, queue string, bodies [][]byte, traces []trace.Context) error {
	return c.PublishBatch(queue, bodies, traces)
}

func AckBatchOn(s Subscription, tags []uint64) error { return s.Ack(tags...) }

// localConn adapts *Broker to Conn.
type localConn struct{ b *Broker }

// LocalConn wraps an in-process broker as a Conn.
func LocalConn(b *Broker) Conn { return localConn{b} }

func (l localConn) Declare(queue string) error { return l.b.Declare(queue) }
func (l localConn) Delete(queue string) error  { return l.b.Delete(queue) }

func (l localConn) PublishBatch(queue string, bodies [][]byte, traces []trace.Context) error {
	return l.b.PublishBatch(queue, bodies, traces)
}

func (l localConn) Subscribe(queue string, prefetch int) (Subscription, error) {
	c, err := l.b.Consume(queue, prefetch)
	if err != nil {
		return nil, err
	}
	return localSub{c}, nil
}

// localSub adapts *Consumer to Subscription (Close becomes Cancel).
type localSub struct{ *Consumer }

func (s localSub) Cancel() error { s.Close(); return nil }
