package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/metrics"
	"globuscompute/internal/obs"
	"globuscompute/internal/trace"
)

// Broker layout within the data directory.
const (
	brokerSnapshotFile = "broker.snap"
	brokerWALDir       = "broker-wal"
)

// BrokerOptions configures the durable broker.
type BrokerOptions struct {
	// Dir is the broker's slice of the data directory.
	Dir string
	// SnapshotEvery is the snapshot + compaction cadence (default
	// DefaultSnapshotEvery; <0 disables the background loop).
	SnapshotEvery time.Duration
	// Metrics receives the WAL gauges plus broker_snapshot_age_seconds and
	// broker_wal_replay (exported ..._seconds). Nil uses a private registry.
	Metrics *metrics.Registry
	// Tracer records recovery as a "durable.broker_replay" span. Nil
	// disables.
	Tracer *trace.Tracer

	// noSync disables fsync; this package's tests set it.
	noSync bool
}

// ackWindow is how long acks are held back so that those arriving together
// share one record. Every consumer acks by the batch (an executor one Ack per
// drain of its result stream), but at low load a batch is one message, so
// acks still arrive one at a time; without the window the log takes ~45 %
// more appends per task (docs/DURABILITY.md "Commit budget").
const ackWindow = 5 * time.Millisecond

// brokerSnapshot is the on-disk snapshot envelope.
type brokerSnapshot struct {
	AppliedLSN uint64       `json:"applied_lsn"`
	Image      broker.Image `json:"image"`
}

// BrokerLog is a broker recovered from disk and journaled to a WAL: queue
// declarations, publishes, and acks are logged so a restart rebuilds every
// queue with its undelivered and unacked messages intact (flagged
// Redelivered — the consumer side must already tolerate at-least-once).
type BrokerLog struct {
	// B is the recovered broker, journal attached.
	B *broker.Broker

	opts BrokerOptions
	hz   *horizon

	ackMu sync.Mutex
	acks  map[string][]uint64 // acknowledged, not yet journaled, by queue
}

// msgRec is the replay model's view of one buffered message.
type msgRec struct {
	id   uint64
	body []byte
}

// OpenBroker restores a broker from opts.Dir (newest snapshot plus the WAL
// tail, deduping replayed publishes by message ID) and returns it journaled.
// Every restored message is flagged Redelivered: the broker cannot know
// which deliveries were in flight at the crash, and at-least-once delivery
// makes over-flagging safe.
func OpenBroker(opts BrokerOptions) (*BrokerLog, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: broker dir: %w", err)
	}
	bl := &BrokerLog{B: broker.New(), opts: opts, acks: make(map[string][]uint64)}

	start := time.Now()
	snapPath := filepath.Join(opts.Dir, brokerSnapshotFile)
	var snap brokerSnapshot
	restored := false
	if img, err := os.ReadFile(snapPath); err == nil {
		if err := json.Unmarshal(img, &snap); err != nil {
			return nil, fmt.Errorf("durable: broker snapshot %s: %w", snapPath, err)
		}
		restored = true
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("durable: broker snapshot: %w", err)
	}

	wal, err := OpenWAL(WALOptions{
		Dir:     filepath.Join(opts.Dir, brokerWALDir),
		noSync:  opts.noSync,
		Metrics: opts.Metrics,
	})
	if err != nil {
		return nil, err
	}

	// Rebuild the queue model: snapshot image first, then the WAL tail on
	// top. Publishes replay idempotently — a message ID already present
	// (because the snapshot horizon is conservative) is skipped.
	model := make(map[string][]msgRec)
	order := []string{} // declaration order, for deterministic restore
	present := make(map[string]map[uint64]bool)
	ensure := func(name string) {
		if _, ok := model[name]; !ok {
			model[name] = nil
			present[name] = make(map[uint64]bool)
			order = append(order, name)
		}
	}
	nextID := snap.Image.NextID
	for _, qi := range snap.Image.Queues {
		ensure(qi.Name)
		for i, body := range qi.Messages {
			m := msgRec{body: body}
			if i < len(qi.IDs) {
				m.id = qi.IDs[i]
			}
			model[qi.Name] = append(model[qi.Name], m)
			if m.id != 0 {
				present[qi.Name][m.id] = true
				if m.id >= nextID {
					nextID = m.id + 1
				}
			}
		}
	}
	replayed := 0
	n, err := wal.Replay(snap.AppliedLSN+1, func(lsn uint64, payload []byte) error {
		rec, err := decodeBrokerRecord(payload)
		if err != nil {
			return fmt.Errorf("durable: broker replay lsn %d: %w", lsn, err)
		}
		switch rec.Op {
		case "declare":
			ensure(rec.Queue)
		case "delete":
			delete(model, rec.Queue)
			delete(present, rec.Queue)
			// A later re-declare lists the queue afresh; leaving the old entry
			// would materialize it, and its messages, twice.
			order = slices.DeleteFunc(order, func(n string) bool { return n == rec.Queue })
		case "pub":
			ensure(rec.Queue)
			for i, id := range rec.IDs {
				if i >= len(rec.Bodies) || present[rec.Queue][id] {
					continue
				}
				model[rec.Queue] = append(model[rec.Queue], msgRec{id: id, body: rec.Bodies[i]})
				present[rec.Queue][id] = true
				if id >= nextID {
					nextID = id + 1
				}
				replayed++
			}
		case "ack":
			msgs, ok := model[rec.Queue]
			if !ok {
				break
			}
			drop := make(map[uint64]bool, len(rec.IDs))
			for _, id := range rec.IDs {
				drop[id] = true
			}
			kept := msgs[:0]
			for _, m := range msgs {
				if m.id != 0 && drop[m.id] {
					delete(present[rec.Queue], m.id)
					continue
				}
				kept = append(kept, m)
			}
			model[rec.Queue] = kept
		}
		return nil
	})
	if err != nil {
		wal.Close()
		return nil, err
	}

	// Materialize: every surviving message redelivers.
	img := broker.Image{NextID: nextID}
	queues, messages := 0, 0
	for _, name := range order {
		msgs := model[name]
		qi := broker.QueueImage{Name: name, RedeliverTo: len(msgs)}
		for _, m := range msgs {
			qi.Messages = append(qi.Messages, m.body)
			qi.IDs = append(qi.IDs, m.id)
		}
		img.Queues = append(img.Queues, qi)
		queues++
		messages += len(msgs)
	}
	if err := bl.B.RestoreImage(img); err != nil {
		wal.Close()
		return nil, err
	}

	dur := time.Since(start)
	opts.Metrics.Histogram("broker_wal_replay").Observe(dur)
	opts.Tracer.Record(trace.Context{}, "durable.broker_replay", start, time.Now(),
		"records", fmt.Sprint(n),
		"queues", fmt.Sprint(queues),
		"messages", fmt.Sprint(messages))
	obs.Component("durable").Info("broker recovery complete",
		"snapshot", restored,
		"snapshot_lsn", snap.AppliedLSN,
		"wal_records", n,
		"replayed_publishes", replayed,
		"queues", queues,
		"messages", messages,
		"duration", dur.Round(time.Microsecond).String())

	bl.hz = newHorizon(wal, snapPath, snap.AppliedLSN, opts.Metrics.Gauge("broker_snapshot_age_seconds"))
	bl.B.SetJournal(bl)
	if opts.SnapshotEvery > 0 {
		bl.hz.start(opts.SnapshotEvery, bl.SnapshotNow)
	}
	return bl, nil
}

// LogPublish implements broker.Journal: group-commit the publish record
// before the broker enqueues the messages, tracking the append as in-flight
// so the snapshot horizon never covers a logged-but-unenqueued message.
func (bl *BrokerLog) LogPublish(queue string, ids []uint64, bodies [][]byte) (func(), error) {
	return bl.hz.commit(encodePub(queue, ids, bodies))
}

// LogAck journals acks asynchronously and coalesced: the delivered message is
// already gone from memory, so losing the record only means a wider
// redelivery window after a crash — which at-least-once delivery absorbs. The
// hot ack path therefore never waits on the disk, and the acks of one
// ackWindow become one record per queue, not one per message.
func (bl *BrokerLog) LogAck(queue string, ids []uint64) {
	bl.ackMu.Lock()
	if len(bl.acks) == 0 {
		time.AfterFunc(ackWindow, bl.journalHeldAcks)
	}
	bl.acks[queue] = append(bl.acks[queue], ids...)
	bl.ackMu.Unlock()
}

// journalHeldAcks appends the held acks to the log, one record per queue.
func (bl *BrokerLog) journalHeldAcks() {
	bl.ackMu.Lock()
	acks := bl.acks
	if len(acks) == 0 { // already journaled by a Close or an earlier timer
		bl.ackMu.Unlock()
		return
	}
	bl.acks = make(map[string][]uint64, len(acks))
	bl.ackMu.Unlock()
	for queue, ids := range acks {
		_, _ = bl.hz.wal.AppendAsync(encodeAck(queue, ids))
	}
}

// LogDeclare journals a queue creation (async; a lost record is recreated by
// the first replayed publish).
func (bl *BrokerLog) LogDeclare(queue string) { bl.logLifecycle("declare", queue) }

// LogDelete journals a queue deletion (async).
func (bl *BrokerLog) LogDelete(queue string) { bl.logLifecycle("delete", queue) }

func (bl *BrokerLog) logLifecycle(op, queue string) {
	if payload, err := json.Marshal(brokerRecord{Op: op, Queue: queue}); err == nil {
		_, _ = bl.hz.wal.AppendAsync(payload)
	}
}

// SnapshotNow writes a broker snapshot at the current safe horizon and
// compacts the WAL below it.
func (bl *BrokerLog) SnapshotNow() error {
	_, err := bl.hz.snapshot(func(safe uint64) ([]byte, error) {
		return json.Marshal(brokerSnapshot{AppliedLSN: safe, Image: bl.B.SnapshotImage()})
	})
	return err
}

// WAL exposes the underlying log (tests and the crash suite).
func (bl *BrokerLog) WAL() *WAL { return bl.hz.wal }

// Close stops the snapshot loop, journals the held acks, takes a final
// snapshot, and closes the WAL. The broker itself is closed separately.
func (bl *BrokerLog) Close() error {
	bl.journalHeldAcks()
	return bl.hz.close(bl.SnapshotNow)
}
