package statestore

import (
	"errors"
	"testing"
	"time"

	"globuscompute/internal/protocol"
)

func TestIdempotencyPutGet(t *testing.T) {
	s := New()
	ids := []protocol.UUID{protocol.NewUUID(), protocol.NewUUID()}
	if err := s.PutIdempotency("alice", "k1", ids); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetIdempotency("alice", "k1")
	if !ok || len(got) != 2 || got[0] != ids[0] || got[1] != ids[1] {
		t.Fatalf("get = %v, %v", got, ok)
	}
	// Duplicate put is rejected (replay-skip semantics).
	if err := s.PutIdempotency("alice", "k1", ids); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate put err = %v", err)
	}
	// Keys are owner-scoped: bob can't see or collide with alice's key.
	if _, ok := s.GetIdempotency("bob", "k1"); ok {
		t.Fatal("cross-owner key leak")
	}
	if err := s.PutIdempotency("bob", "k1", ids[:1]); err != nil {
		t.Fatal(err)
	}
	// Empty keys are invalid.
	if err := s.PutIdempotency("alice", "", ids); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestIdempotencySnapshotRoundtrip(t *testing.T) {
	s := New()
	ids := []protocol.UUID{protocol.NewUUID()}
	if err := s.PutIdempotency("alice", "k1", ids); err != nil {
		t.Fatal(err)
	}
	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.Restore(img); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.GetIdempotency("alice", "k1")
	if !ok || len(got) != 1 || got[0] != ids[0] {
		t.Fatalf("restored get = %v, %v", got, ok)
	}
	if n := len(s2.idem.m); n != 1 {
		t.Fatalf("count = %d", n)
	}
}

func TestIdempotencyPurge(t *testing.T) {
	s := New()
	base := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return base })
	s.PutIdempotency("a", "old", nil)
	s.SetClock(func() time.Time { return base.Add(time.Hour) })
	s.PutIdempotency("a", "new", nil)
	if n := s.PurgeIdempotencyBefore(base.Add(time.Minute)); n != 1 {
		t.Fatalf("purged %d, want 1", n)
	}
	if _, ok := s.GetIdempotency("a", "old"); ok {
		t.Fatal("old key survived purge")
	}
	if _, ok := s.GetIdempotency("a", "new"); !ok {
		t.Fatal("new key purged")
	}
}

func TestIdempotencyReplay(t *testing.T) {
	s := New()
	rec := IdempotencyRecord{Owner: "a", Key: "k", TaskIDs: []protocol.UUID{protocol.NewUUID()}}
	m := Mutation{Op: OpPutIdempotency, At: time.Unix(2000, 0), Idempotency: &rec}
	if err := s.ApplyMutation(m); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetIdempotency("a", "k")
	if !ok || len(got) != 1 {
		t.Fatalf("replayed get = %v, %v", got, ok)
	}
	// Replaying the same record again rejects, like a duplicate create.
	if err := s.ApplyMutation(m); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate replay err = %v", err)
	}
}
