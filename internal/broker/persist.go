package broker

// Durability: the hosted RabbitMQ deployment persists queue contents so
// buffered tasks and results survive service restarts ("ensuring they are
// not lost"). SnapshotImage/RestoreImage provide the same guarantee for
// this broker: an image captures every queue's ready messages plus
// delivered-but-unacknowledged messages (which a restart must redeliver).
// The durable package layers a write-ahead journal on top (see Journal),
// stores the image as JSON in its snapshot file, and uses the message IDs
// carried in the image to dedupe replayed publishes.

import "globuscompute/internal/deque"

// QueueImage is one queue's persisted form.
type QueueImage struct {
	Name string `json:"name"`
	// Messages are ready bodies in order; unacked deliveries are folded in
	// at the front (they redeliver first, flagged Redelivered).
	Messages    [][]byte `json:"messages"`
	RedeliverTo int      `json:"redeliver_to"` // messages[:RedeliverTo] redeliver
	// IDs are the journal message IDs parallel to Messages (absent or zero
	// when the broker was not journaling).
	IDs []uint64 `json:"ids,omitempty"`
	// Interactive, when present, is parallel to Messages and marks which
	// entries belong to the interactive priority level (see
	// PublishBatchInteractive). Absent (older images) means all batch.
	Interactive []bool `json:"interactive,omitempty"`
}

// Image is the broker's full persisted form.
type Image struct {
	Queues []QueueImage `json:"queues"`
	// NextID seeds the journal message-ID counter after a restore so new
	// publishes never reuse a persisted ID.
	NextID uint64 `json:"next_id,omitempty"`
}

// SnapshotImage captures all queues: ready messages plus unacknowledged
// deliveries (folded to the front, as a broker restart would requeue them).
func (b *Broker) SnapshotImage() Image {
	var queues []*queue
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		for _, q := range sh.m {
			queues = append(queues, q)
		}
		sh.mu.RUnlock()
	}

	img := Image{NextID: b.nextMsgID.Load() + 1}
	for _, q := range queues {
		q.mu.Lock()
		qi := QueueImage{Name: q.name}
		for _, c := range q.consumers {
			for _, e := range c.unacked {
				qi.Messages = append(qi.Messages, append([]byte(nil), e.body...))
				qi.IDs = append(qi.IDs, e.id)
				qi.Interactive = append(qi.Interactive, e.interactive)
			}
		}
		qi.RedeliverTo = len(qi.Messages)
		// Ready levels in dispatch order: interactive first, then batch.
		for _, d := range []*deque.Deque[entry]{&q.readyHigh, &q.ready} {
			d.Each(func(e *entry) {
				qi.Messages = append(qi.Messages, append([]byte(nil), e.body...))
				qi.IDs = append(qi.IDs, e.id)
				qi.Interactive = append(qi.Interactive, e.interactive)
				if e.redelivered && qi.RedeliverTo < len(qi.Messages) {
					// preserve redelivery flags for already-requeued entries
					qi.RedeliverTo = len(qi.Messages)
				}
			})
		}
		q.mu.Unlock()
		img.Queues = append(img.Queues, qi)
	}
	return img
}

// RestoreImage recreates queues and their buffered messages from an Image.
// Existing queues with the same names receive the messages appended;
// typically it is called on a fresh broker. The journal ID counter resumes
// past every restored ID.
func (b *Broker) RestoreImage(img Image) error {
	maxID := img.NextID
	for _, qi := range img.Queues {
		if err := b.Declare(qi.Name); err != nil {
			return err
		}
		q, err := b.lookup(qi.Name)
		if err != nil {
			return err
		}
		q.mu.Lock()
		for i, body := range qi.Messages {
			e := entry{body: append([]byte(nil), body...), redelivered: i < qi.RedeliverTo}
			if i < len(qi.IDs) {
				e.id = qi.IDs[i]
				if e.id >= maxID {
					maxID = e.id + 1
				}
			}
			if i < len(qi.Interactive) && qi.Interactive[i] {
				e.interactive = true
				q.readyHigh.PushBack(e)
			} else {
				q.ready.PushBack(e)
			}
		}
		q.dispatchLocked()
		q.mu.Unlock()
	}
	if cur := b.nextMsgID.Load(); maxID > cur+1 {
		b.nextMsgID.Store(maxID - 1)
	}
	return nil
}
