// Package broker implements the message-queue substrate that stands in for
// the cloud-hosted RabbitMQ deployment: named FIFO queues with
// publish/consume, per-consumer prefetch, explicit ack/reject, and requeue of
// unacknowledged messages when a consumer disconnects (at-least-once
// delivery).
//
// The web service declares a task queue and a result queue per endpoint;
// endpoint agents consume tasks and publish results; the result processor
// and streaming SDK executors consume results. All of those paths go through
// this package, either in-process (Broker methods) or over framed TCP
// (Server/Dial in server.go and client.go).
package broker

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"globuscompute/internal/deque"
	"globuscompute/internal/metrics"
	"globuscompute/internal/trace"
)

// Common errors.
var (
	ErrQueueNotFound  = errors.New("broker: queue not found")
	ErrClosed         = errors.New("broker: closed")
	ErrUnknownTag     = errors.New("broker: unknown delivery tag")
	ErrConsumerClosed = errors.New("broker: consumer closed")
	// ErrQueueFull reports a publish shed by a queue's depth limit (see
	// SetQueueLimit). The caller decides whether to surface it as overload
	// (the webservice returns 503 + Retry-After) or retry later.
	ErrQueueFull = errors.New("broker: queue full")
)

// shedWatermark is the soft fill fraction at which batch-priority
// publishes shed; interactive publishes may fill to the hard limit. The
// gap reserves headroom so interactive traffic keeps flowing while batch
// backs off first.
const shedWatermark = 0.8

// Message is a delivered queue entry. Tag identifies it for Ack/Reject on the
// consumer that received it.
type Message struct {
	Tag         uint64
	Body        []byte
	Redelivered bool
	// Trace is the delivery's trace context: the broker-transit span when
	// the broker traces, otherwise the publisher's context, otherwise zero.
	// Consumers continue the task's trace by parenting on it.
	Trace trace.Context
}

// queueShards splits the broker's queue map so that lookups and declares on
// different queues do not serialize on one lock. 16 shards keeps the
// per-shard maps small while comfortably exceeding typical core counts.
const queueShards = 16

// queueShard is one slice of the queue map; reads (the per-publish lookup)
// take only the read lock.
type queueShard struct {
	mu sync.RWMutex
	m  map[string]*queue
}

// Broker is an in-process message broker. The zero value is not usable; use
// New.
type Broker struct {
	shards  [queueShards]queueShard
	closed  atomic.Bool
	Metrics *metrics.Registry
	// Tracer, when set before use, records a "broker.deliver" span per
	// traced message (publish -> delivery, the queue-transit time) and a
	// "requeue" span per disconnect requeue.
	Tracer *trace.Tracer

	// jrnl, when set, journals queue lifecycle and message flow so a broker
	// restart redelivers queued-but-undelivered and delivered-but-unacked
	// messages (see SetJournal).
	jrnl Journal
	// nextMsgID hands out broker-unique message IDs when journaling, so the
	// journal can dedupe replayed publishes against a snapshot.
	nextMsgID atomic.Uint64
}

// Journal receives broker mutations for write-ahead persistence. LogPublish
// must make the records durable before returning (a published task may
// already be marked Delivered in the statestore — losing it would strand the
// task) and returns an applied callback, invoked once the messages are
// enqueued, so the journal's snapshot horizon never covers a logged-but-
// unenqueued publish. LogAck and the lifecycle hooks are fire-and-forget:
// losing an ack record only widens redelivery, which at-least-once delivery
// absorbs.
type Journal interface {
	LogDeclare(queue string)
	LogDelete(queue string)
	LogPublish(queue string, ids []uint64, bodies [][]byte) (applied func(), err error)
	LogAck(queue string, ids []uint64)
}

// SetJournal attaches the write-ahead journal. Call before the broker serves
// traffic (typically right after restoring a snapshot).
func (b *Broker) SetJournal(j Journal) { b.jrnl = j }

// New returns an empty broker.
func New() *Broker {
	b := &Broker{Metrics: metrics.NewRegistry()}
	for i := range b.shards {
		b.shards[i].m = make(map[string]*queue)
	}
	return b
}

func (b *Broker) shard(name string) *queueShard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &b.shards[h.Sum32()%queueShards]
}

// Declare creates the named queue. Declaring an existing queue is an
// idempotent no-op, matching AMQP passive declaration of identical queues.
func (b *Broker) Declare(name string) error {
	if b.closed.Load() {
		return ErrClosed
	}
	sh := b.shard(name)
	sh.mu.RLock()
	_, ok := sh.m[name]
	sh.mu.RUnlock()
	if ok {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if b.closed.Load() {
		return ErrClosed
	}
	if _, ok := sh.m[name]; !ok {
		sh.m[name] = newQueue(b, name)
		if b.jrnl != nil {
			b.jrnl.LogDeclare(name)
		}
	}
	return nil
}

// Delete removes a queue, closing its consumers. Pending messages are
// dropped (used when an endpoint is deregistered).
func (b *Broker) Delete(name string) error {
	sh := b.shard(name)
	sh.mu.Lock()
	q, ok := sh.m[name]
	if ok {
		delete(sh.m, name)
	}
	sh.mu.Unlock()
	if !ok {
		return ErrQueueNotFound
	}
	if b.jrnl != nil {
		b.jrnl.LogDelete(name)
	}
	q.close()
	return nil
}

// Publish appends one body to the named queue: a batch of one.
func (b *Broker) Publish(name string, body []byte) error {
	return b.PublishBatch(name, [][]byte{body}, nil)
}

// PublishBatch appends messages to one queue under a single lock
// acquisition and a single dispatch pass. traces may be nil (no message
// traced) or parallel to bodies: each context rides with its message to the
// consumer, and queue transit is recorded as a child "broker.deliver" span
// when the broker has a Tracer. Messages publish at batch (normal) priority.
func (b *Broker) PublishBatch(name string, bodies [][]byte, traces []trace.Context) error {
	return b.publishPriority(name, bodies, traces, false)
}

// PublishBatchInteractive publishes at interactive priority: the messages
// dispatch ahead of batch-priority traffic and, on a depth-limited queue,
// may fill past the batch shed watermark up to the hard limit.
func (b *Broker) PublishBatchInteractive(name string, bodies [][]byte, traces []trace.Context) error {
	return b.publishPriority(name, bodies, traces, true)
}

// publishPriority is the shared publish path. The depth-limit check runs
// before journaling so a shed publish is never written to the WAL (a
// replayed record must correspond to a message the caller was told was
// accepted). The check and the enqueue are separate lock acquisitions, so
// concurrent publishers can overshoot the limit by at most the in-flight
// batch sizes — watermark shedding is a pressure valve, not an exact cap.
func (b *Broker) publishPriority(name string, bodies [][]byte, traces []trace.Context, interactive bool) error {
	if len(bodies) == 0 {
		return nil
	}
	q, err := b.lookup(name)
	if err != nil {
		return err
	}
	if err := q.admit(len(bodies), interactive); err != nil {
		return err
	}
	var ids []uint64
	var done func()
	if b.jrnl != nil {
		ids = make([]uint64, len(bodies))
		for i := range ids {
			ids[i] = b.nextMsgID.Add(1)
		}
		if done, err = b.jrnl.LogPublish(name, ids, bodies); err != nil {
			return err
		}
	}
	err = q.publishBatch(ids, bodies, traces, interactive)
	if done != nil {
		done()
	}
	return err
}

// SetQueueLimit bounds the named queue's ready depth: batch-priority
// publishes shed (ErrQueueFull) once depth reaches shedWatermark*limit,
// interactive publishes at limit. limit <= 0 restores unbounded growth.
// Requeues and redeliveries are never shed — bounding applies to new
// offered load only, so at-least-once delivery is unaffected.
func (b *Broker) SetQueueLimit(name string, limit int) error {
	q, err := b.lookup(name)
	if err != nil {
		return err
	}
	q.mu.Lock()
	q.limit = limit
	q.mu.Unlock()
	return nil
}

// Depth returns the number of messages waiting (not yet delivered) in the
// queue.
func (b *Broker) Depth(name string) (int, error) {
	q, err := b.lookup(name)
	if err != nil {
		return 0, err
	}
	return q.depth(), nil
}

// Unacked returns the number of delivered-but-unacknowledged messages.
func (b *Broker) Unacked(name string) (int, error) {
	q, err := b.lookup(name)
	if err != nil {
		return 0, err
	}
	return q.unackedCount(), nil
}

// Queues lists declared queue names.
func (b *Broker) Queues() []string {
	var names []string
	for _, q := range b.allQueues() {
		names = append(names, q.name)
	}
	return names
}

// allQueues returns every declared queue.
func (b *Broker) allQueues() []*queue {
	var qs []*queue
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		for _, q := range sh.m {
			qs = append(qs, q)
		}
		sh.mu.RUnlock()
	}
	return qs
}

// Consume attaches a consumer to the named queue with the given prefetch
// window (<=0 selects 1). Deliveries arrive on the returned Consumer's
// channel until the consumer or broker closes.
func (b *Broker) Consume(name string, prefetch int) (*Consumer, error) {
	q, err := b.lookup(name)
	if err != nil {
		return nil, err
	}
	c := q.addConsumer(prefetch)
	c.b = b
	return c, nil
}

// Close shuts down the broker and all queues and consumers.
func (b *Broker) Close() {
	if b.closed.Swap(true) {
		return
	}
	for _, q := range b.allQueues() {
		q.close()
	}
}

func (b *Broker) lookup(name string) (*queue, error) {
	if b.closed.Load() {
		return nil, ErrClosed
	}
	sh := b.shard(name)
	sh.mu.RLock()
	q, ok := sh.m[name]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrQueueNotFound, name)
	}
	return q, nil
}

// queue holds messages and dispatches them to consumers round-robin,
// honoring each consumer's prefetch credit.
type queue struct {
	mu   sync.Mutex
	b    *Broker
	name string
	// Two-level priority: readyHigh (interactive) drains completely before
	// ready (batch). Requeues return to the front of their original level,
	// preserving redelivery-first ordering within each class.
	ready     deque.Deque[entry] // batch priority
	readyHigh deque.Deque[entry] // interactive priority
	consumers []*Consumer
	nextRR    int // round-robin cursor
	nextTag   uint64
	closed    bool
	// limit, when > 0, bounds ready depth; see SetQueueLimit.
	limit        int
	published    *metrics.Counter
	delivered    *metrics.Counter
	acked        *metrics.Counter
	requeued     *metrics.Counter
	deadlettered *metrics.Counter
	shed         *metrics.Counter
	depthGauge   *metrics.Gauge
}

type entry struct {
	body        []byte
	redelivered bool
	// interactive marks the entry's priority level for requeue placement.
	interactive bool
	// id is the journal's broker-unique message ID (0 when not journaling).
	id uint64
	// tc is the publisher's trace context; it survives requeues so a
	// redelivered message keeps its original trace ID.
	tc trace.Context
	// enqueued stamps when the entry (re)entered the ready list, bounding
	// the broker-transit span.
	enqueued time.Time
}

func newQueue(b *Broker, name string) *queue {
	reg := b.Metrics
	return &queue{
		b:            b,
		name:         name,
		published:    reg.Counter("published." + name),
		delivered:    reg.Counter("delivered." + name),
		acked:        reg.Counter("acked." + name),
		requeued:     reg.Counter("requeued." + name),
		deadlettered: reg.Counter("deadlettered." + name),
		shed:         reg.Counter("shed." + name),
		depthGauge:   reg.Gauge("depth." + name),
	}
}

// admit applies the depth limit to a publish of n new messages. Interactive
// traffic may fill to the hard limit; batch sheds at the watermark.
func (q *queue) admit(n int, interactive bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.limit <= 0 {
		return nil
	}
	lim := q.limit
	if !interactive {
		if lim = int(shedWatermark * float64(q.limit)); lim < 1 {
			lim = 1
		}
	}
	if depth := q.depthLocked(); depth+n > lim {
		q.shed.Add(int64(n))
		return fmt.Errorf("%w: %s depth %d (+%d) over limit %d", ErrQueueFull, q.name, depth, n, lim)
	}
	return nil
}

// publishBatch appends all bodies and dispatches once: N messages cost one
// mutex round trip and one dispatch pass instead of N.
func (q *queue) publishBatch(ids []uint64, bodies [][]byte, traces []trace.Context, interactive bool) error {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	dst := &q.ready
	if interactive {
		dst = &q.readyHigh
	}
	// One arena holds the batch's bodies, so a message costs no allocation
	// of its own; the arena is freed with the batch's last message.
	size := 0
	for _, body := range bodies {
		size += len(body)
	}
	arena := make([]byte, 0, size)
	for i, body := range bodies {
		e := entry{enqueued: now, interactive: interactive}
		if i < len(traces) {
			e.tc = traces[i]
		}
		if len(body) > 0 {
			arena = append(arena, body...)
			e.body = arena[len(arena)-len(body) : len(arena) : len(arena)]
		}
		if i < len(ids) {
			e.id = ids[i]
		}
		dst.PushBack(e)
	}
	q.published.Add(int64(len(bodies)))
	q.dispatchLocked()
	q.depthGauge.Set(int64(q.depthLocked()))
	return nil
}

func (q *queue) depthLocked() int { return q.ready.Len() + q.readyHigh.Len() }

func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depthLocked()
}

func (q *queue) unackedCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, c := range q.consumers {
		n += len(c.unacked)
	}
	return n
}

func (q *queue) addConsumer(prefetch int) *Consumer {
	if prefetch <= 0 {
		prefetch = 1
	}
	c := &Consumer{
		q:        q,
		ch:       make(chan Message, prefetch),
		prefetch: prefetch,
		unacked:  make(map[uint64]entry),
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		close(c.ch)
		c.closed = true
		return c
	}
	q.consumers = append(q.consumers, c)
	q.dispatchLocked()
	return c
}

// dispatchLocked hands ready messages to consumers with available credit,
// round-robin across consumers, draining the interactive level before the
// batch level. Caller holds q.mu.
func (q *queue) dispatchLocked() {
	if len(q.consumers) == 0 {
		return
	}
	for q.depthLocked() > 0 {
		c := q.pickConsumerLocked()
		if c == nil {
			return // everyone is at their prefetch window
		}
		src := &q.readyHigh
		if src.Len() == 0 {
			src = &q.ready
		}
		e := src.PopFront()
		q.nextTag++
		tag := q.nextTag
		c.unacked[tag] = e
		q.delivered.Inc()
		// Queue-transit span: publish (or requeue) to delivery. The
		// delivered context becomes the consumer's parent so downstream
		// stages chain off the transit span.
		tc := e.tc
		if tc.Valid() {
			tc = q.b.Tracer.Record(tc, "broker.deliver", e.enqueued, time.Now(), "queue", q.name)
		}
		// The channel has capacity == prefetch and credit was checked,
		// so this send cannot block.
		c.ch <- Message{Tag: tag, Body: e.body, Redelivered: e.redelivered, Trace: tc}
	}
	q.depthGauge.Set(int64(q.depthLocked()))
}

func (q *queue) pickConsumerLocked() *Consumer {
	n := len(q.consumers)
	for i := 0; i < n; i++ {
		c := q.consumers[(q.nextRR+i)%n]
		if !c.closed && len(c.unacked) < c.prefetch {
			q.nextRR = (q.nextRR + i + 1) % n
			return c
		}
	}
	return nil
}

// journalAck records acked message IDs (fire-and-forget). Called outside
// q.mu so a slow journal never blocks dispatch.
func (q *queue) journalAck(ids ...uint64) {
	j := q.b.jrnl
	if j == nil {
		return
	}
	live := ids[:0]
	for _, id := range ids {
		if id != 0 {
			live = append(live, id)
		}
	}
	if len(live) > 0 {
		j.LogAck(q.name, live)
	}
}

// ack acknowledges every tag under one lock acquisition, dispatching once at
// the end. Unknown tags (stale after a reconnect) are skipped; the error
// reports how many, after the valid tags have all been acked.
func (q *queue) ack(c *Consumer, tags []uint64) error {
	q.mu.Lock()
	unknown := 0
	ackedIDs := make([]uint64, 0, len(tags))
	for _, tag := range tags {
		e, ok := c.unacked[tag]
		if !ok {
			unknown++
			continue
		}
		delete(c.unacked, tag)
		ackedIDs = append(ackedIDs, e.id)
	}
	q.acked.Add(int64(len(ackedIDs)))
	q.dispatchLocked()
	q.mu.Unlock()
	q.journalAck(ackedIDs...)
	if unknown > 0 {
		return fmt.Errorf("%w: %d of %d tags", ErrUnknownTag, unknown, len(tags))
	}
	return nil
}

// DeadLetterSuffix names the queue that receives rejected messages.
const DeadLetterSuffix = ".dlq"

// reject dead-letters a message: it moves to "<queue>.dlq" instead of
// being redelivered, the standard poison-message escape hatch.
func (q *queue) reject(b *Broker, c *Consumer, tag uint64) error {
	q.mu.Lock()
	e, ok := c.unacked[tag]
	if !ok {
		q.mu.Unlock()
		return ErrUnknownTag
	}
	delete(c.unacked, tag)
	q.deadlettered.Inc()
	q.dispatchLocked()
	q.mu.Unlock()
	// The dead-letter move is journaled as ack-here + publish-there (the DLQ
	// publish below journals itself).
	q.journalAck(e.id)
	dlq := q.name + DeadLetterSuffix
	if err := b.Declare(dlq); err != nil {
		return err
	}
	return b.PublishBatch(dlq, [][]byte{e.body}, []trace.Context{e.tc})
}

// requeueLocked returns e, left unacked by a consumer that went away, to
// the front of its priority level's ready list, re-stamping its transit
// clock and recording a "requeue" span under the message's original trace.
// Requeues bypass the depth limit: the message was already accepted once
// and must not be lost. Caller holds q.mu.
func (q *queue) requeueLocked(e entry) {
	if e.tc.Valid() {
		now := time.Now()
		q.b.Tracer.Record(e.tc, "requeue", now, now, "queue", q.name, "reason", "disconnect")
	}
	e.enqueued = time.Now()
	if e.interactive {
		q.readyHigh.PushFront(e)
	} else {
		q.ready.PushFront(e)
	}
	q.requeued.Inc()
	q.depthGauge.Set(int64(q.depthLocked()))
}

// removeConsumer detaches c, requeueing everything it had not acked.
func (q *queue) removeConsumer(c *Consumer) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for i, cc := range q.consumers {
		if cc == c {
			q.consumers = append(q.consumers[:i], q.consumers[i+1:]...)
			break
		}
	}
	// Each requeue goes to the front of its level, so the highest tag goes
	// first and the batch comes back in the order it was delivered.
	tags := c.unackedTagsLocked()
	for i := len(tags) - 1; i >= 0; i-- {
		e := c.unacked[tags[i]]
		delete(c.unacked, tags[i])
		e.redelivered = true
		q.requeueLocked(e)
	}
	close(c.ch)
	q.dispatchLocked()
}

func (q *queue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	for _, c := range q.consumers {
		c.closed = true
		close(c.ch)
	}
	q.consumers = nil
	q.mu.Unlock()
}

// Consumer receives deliveries from one queue. Messages must be Acked,
// Rejected; Close requeues anything outstanding.
type Consumer struct {
	q        *queue
	b        *Broker
	ch       chan Message
	prefetch int
	// guarded by q.mu
	unacked map[uint64]entry
	closed  bool
}

// unackedTagsLocked returns c's unacked delivery tags in delivery order.
// Caller holds q.mu.
func (c *Consumer) unackedTagsLocked() []uint64 {
	tags := make([]uint64, 0, len(c.unacked))
	for tag := range c.unacked {
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	return tags
}

// Messages returns the delivery channel. It is closed when the consumer or
// queue closes.
func (c *Consumer) Messages() <-chan Message { return c.ch }

// Ack acknowledges delivered messages by tag in one queue-lock round trip.
// Stale tags are skipped (reported in the error) after valid ones are acked.
func (c *Consumer) Ack(tags ...uint64) error { return c.q.ack(c, tags) }

// Reject dead-letters a delivered message to "<queue>.dlq" instead of
// redelivering it (for poison messages the consumer cannot process).
func (c *Consumer) Reject(tag uint64) error {
	if c.b == nil {
		return ErrClosed
	}
	return c.q.reject(c.b, c, tag)
}

// Close detaches the consumer and requeues unacknowledged messages.
func (c *Consumer) Close() { c.q.removeConsumer(c) }
