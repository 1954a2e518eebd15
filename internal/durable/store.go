package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"globuscompute/internal/metrics"
	"globuscompute/internal/obs"
	"globuscompute/internal/statestore"
	"globuscompute/internal/trace"
)

// Store layout within the data directory.
const (
	storeSnapshotFile = "state.snap"
	storeWALDir       = "wal"

	// DefaultSnapshotEvery is the snapshot + compaction cadence.
	DefaultSnapshotEvery = 30 * time.Second
)

// StoreOptions configures the durable statestore.
type StoreOptions struct {
	// Dir is the statestore's slice of the data directory.
	Dir string
	// SnapshotEvery is the snapshot + compaction cadence (default
	// DefaultSnapshotEvery; <0 disables the background loop — tests drive
	// SnapshotNow directly).
	SnapshotEvery time.Duration
	// Metrics receives the WAL gauges plus snapshot_age_seconds, wal_replay
	// (exported wal_replay_seconds), wal_replayed (.._total), and
	// wal_snapshots (.._total). Nil uses a private registry.
	Metrics *metrics.Registry
	// Tracer records recovery as a "durable.replay" span. Nil disables.
	Tracer *trace.Tracer

	// segmentBytes overrides the WAL rotation threshold and noSync disables
	// fsync: this package's tests set them to replay many segments quickly.
	segmentBytes int64
	noSync       bool
}

// storeSnapshot is the on-disk snapshot envelope: the statestore image plus
// the LSN horizon it reflects, so recovery knows where WAL replay starts.
type storeSnapshot struct {
	AppliedLSN uint64          `json:"applied_lsn"`
	State      json.RawMessage `json:"state"`
}

// Store is a statestore recovered from disk and journaled to a WAL. It
// implements statestore.Journal: every mutation is appended (group-committed)
// before the in-memory store applies it, and a background loop snapshots the
// store and compacts the log below the snapshot's applied horizon.
type Store struct {
	// State is the recovered store; callers use it exactly like an
	// in-memory one.
	State *statestore.Store

	opts StoreOptions
	hz   *horizon

	replayHis *metrics.Histogram
	replayed  *metrics.Counter
	snapshots *metrics.Counter
}

// OpenStore restores the statestore from opts.Dir — newest snapshot plus WAL
// tail, tolerating a torn final record — and returns it journaled, so every
// subsequent mutation is durable before it is visible. An empty directory
// yields an empty store: first boot and recovery are the same code path.
func OpenStore(opts StoreOptions) (*Store, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: store dir: %w", err)
	}
	d := &Store{
		State:     statestore.New(),
		opts:      opts,
		replayHis: opts.Metrics.Histogram("wal_replay"),
		replayed:  opts.Metrics.Counter("wal_replayed"),
		snapshots: opts.Metrics.Counter("wal_snapshots"),
	}

	start := time.Now()
	snapPath := filepath.Join(opts.Dir, storeSnapshotFile)
	var snapLSN uint64
	restored := false
	if img, err := os.ReadFile(snapPath); err == nil {
		var snap storeSnapshot
		if err := json.Unmarshal(img, &snap); err != nil {
			return nil, fmt.Errorf("durable: snapshot %s: %w", snapPath, err)
		}
		if err := d.State.Restore(snap.State); err != nil {
			return nil, fmt.Errorf("durable: snapshot %s: %w", snapPath, err)
		}
		snapLSN = snap.AppliedLSN
		restored = true
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("durable: snapshot: %w", err)
	}

	wal, err := OpenWAL(WALOptions{
		Dir:          filepath.Join(opts.Dir, storeWALDir),
		segmentBytes: opts.segmentBytes,
		noSync:       opts.noSync,
		Metrics:      opts.Metrics,
	})
	if err != nil {
		return nil, err
	}

	// Replay the tail above the snapshot horizon. Mutations whose effect is
	// already in the snapshot (the horizon is conservative) re-apply through
	// the same state machine and are rejected as duplicates or illegal
	// transitions — counted, not fatal.
	applied, skipped := 0, 0
	n, err := wal.Replay(snapLSN+1, func(lsn uint64, payload []byte) error {
		m, err := decodeMutation(payload)
		if err != nil {
			return fmt.Errorf("durable: replay lsn %d: %w", lsn, err)
		}
		if err := d.State.ApplyMutation(m); err != nil {
			skipped++
			return nil
		}
		applied++
		return nil
	})
	if err != nil {
		wal.Close()
		return nil, err
	}
	dur := time.Since(start)
	d.replayHis.Observe(dur)
	d.replayed.Add(int64(applied))
	opts.Tracer.Record(trace.Context{}, "durable.replay", start, time.Now(),
		"snapshot_lsn", fmt.Sprint(snapLSN),
		"records", fmt.Sprint(n),
		"applied", fmt.Sprint(applied),
		"skipped", fmt.Sprint(skipped))
	obs.Component("durable").Info("statestore recovery complete",
		"snapshot", restored,
		"snapshot_lsn", snapLSN,
		"wal_records", n,
		"applied", applied,
		"skipped", skipped,
		"last_lsn", wal.LastLSN(),
		"duration", dur.Round(time.Microsecond).String())

	d.hz = newHorizon(wal, snapPath, snapLSN, opts.Metrics.Gauge("snapshot_age_seconds"))
	d.State.SetJournal(d)
	if opts.SnapshotEvery > 0 {
		d.hz.start(opts.SnapshotEvery, d.SnapshotNow)
	}
	return d, nil
}

// LogMutation implements statestore.Journal: encode, group-commit, and track
// the record as in-flight until the store reports it applied — the safe
// snapshot horizon never advances past a logged-but-unapplied mutation.
func (d *Store) LogMutation(m statestore.Mutation) (func(), error) {
	payload, err := encodeMutation(m)
	if err != nil {
		return nil, err
	}
	return d.hz.commit(payload)
}

// SnapshotNow writes a snapshot at the current safe horizon and compacts WAL
// segments below it. A no-op when nothing advanced since the last snapshot.
func (d *Store) SnapshotNow() error {
	wrote, err := d.hz.snapshot(func(safe uint64) ([]byte, error) {
		img, err := d.State.Snapshot()
		if err != nil {
			return nil, err
		}
		return json.Marshal(storeSnapshot{AppliedLSN: safe, State: img})
	})
	if wrote {
		d.snapshots.Inc()
	}
	return err
}

// Metrics returns the registry carrying the WAL and snapshot metrics.
func (d *Store) Metrics() *metrics.Registry { return d.opts.Metrics }

// WAL exposes the underlying log (tests and the crash suite).
func (d *Store) WAL() *WAL { return d.hz.wal }

// Close stops the snapshot loop, takes a final snapshot, and closes the WAL.
// Safe to skip on crash: that is the point of the journal.
func (d *Store) Close() error { return d.hz.close(d.SnapshotNow) }
