package statestore

import (
	"fmt"
	"sync"
	"time"

	"globuscompute/internal/protocol"
)

// Idempotent submit: a client may attach an idempotency key to a submit
// batch; the webservice records (owner, key) -> task IDs here after the
// batch is created, and a retried POST with the same key returns the
// original IDs instead of enqueueing duplicates. The table is journaled
// through the same write-ahead hook as every other mutation, so with
// -data-dir set the dedup map survives restarts — the retried POST after a
// crash still finds the original IDs. Keys are scoped per owner, so two
// tenants can't collide (or probe) each other's keys.

// IdempotencyRecord maps one client-supplied submit key to the task IDs the
// original request created.
type IdempotencyRecord struct {
	Owner   string          `json:"owner"`
	Key     string          `json:"key"`
	TaskIDs []protocol.UUID `json:"task_ids"`
	Created time.Time       `json:"created"`
}

// idemTable is the (owner, key) -> record map with its own lock; it is far
// colder than the task shards and never contends with them.
type idemTable struct {
	mu sync.RWMutex
	m  map[string]*IdempotencyRecord
}

func idemKey(owner, key string) string { return owner + "\x00" + key }

func (t *idemTable) init() {
	t.m = make(map[string]*IdempotencyRecord)
}

// PutIdempotency records the task IDs created for (owner, key). A second
// put for the same pair fails with ErrAlreadyExists — live callers check
// GetIdempotency first under their own key mutex, and recovery replay
// skips the duplicate exactly like a duplicate task create.
func (s *Store) PutIdempotency(owner, key string, taskIDs []protocol.UUID) error {
	if key == "" {
		return fmt.Errorf("statestore: empty idempotency key")
	}
	rec := IdempotencyRecord{
		Owner:   owner,
		Key:     key,
		TaskIDs: append([]protocol.UUID(nil), taskIDs...),
		Created: s.now(),
	}
	done, err := s.logMutation(Mutation{Op: OpPutIdempotency, Idempotency: &rec})
	if err != nil {
		return err
	}
	if done != nil {
		defer done()
	}
	k := idemKey(owner, key)
	s.idem.mu.Lock()
	defer s.idem.mu.Unlock()
	if _, ok := s.idem.m[k]; ok {
		return fmt.Errorf("%w: idempotency key %q", ErrAlreadyExists, key)
	}
	s.idem.m[k] = &rec
	return nil
}

// GetIdempotency returns the task IDs recorded for (owner, key), if any.
func (s *Store) GetIdempotency(owner, key string) ([]protocol.UUID, bool) {
	s.idem.mu.RLock()
	defer s.idem.mu.RUnlock()
	rec, ok := s.idem.m[idemKey(owner, key)]
	if !ok {
		return nil, false
	}
	return append([]protocol.UUID(nil), rec.TaskIDs...), true
}

// PurgeIdempotencyBefore deletes idempotency records created before cutoff
// (bounded retention, same policy shape as PurgeTasksBefore: a key only
// guards against retries within the retention window). Returns the number
// purged.
func (s *Store) PurgeIdempotencyBefore(cutoff time.Time) int {
	done, jerr := s.logMutation(Mutation{Op: OpPurgeIdempotency, Cutoff: cutoff})
	if jerr != nil {
		return 0
	}
	if done != nil {
		defer done()
	}
	s.idem.mu.Lock()
	defer s.idem.mu.Unlock()
	purged := 0
	for k, rec := range s.idem.m {
		if rec.Created.Before(cutoff) {
			delete(s.idem.m, k)
			purged++
		}
	}
	return purged
}
