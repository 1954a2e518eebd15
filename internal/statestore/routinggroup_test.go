package statestore

import (
	"errors"
	"testing"
	"time"

	"globuscompute/internal/protocol"
)

func TestRoutingGroupCRUD(t *testing.T) {
	s := New()
	g := RoutingGroupRecord{
		ID: protocol.NewUUID(), Name: "fleet", Owner: "alice",
		Policy:  "p2c",
		Members: []protocol.UUID{protocol.NewUUID(), protocol.NewUUID()},
	}
	if err := s.PutRoutingGroup(g); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRoutingGroup(g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "fleet" || got.Policy != "p2c" || len(got.Members) != 2 || got.Created.IsZero() {
		t.Fatalf("bad record: %+v", got)
	}
	// Upsert updates membership, preserves Created.
	g2 := g
	g2.Members = append(g2.Members, protocol.NewUUID())
	if err := s.PutRoutingGroup(g2); err != nil {
		t.Fatal(err)
	}
	got2, _ := s.GetRoutingGroup(g.ID)
	if len(got2.Members) != 3 || !got2.Created.Equal(got.Created) {
		t.Fatalf("upsert: members=%d created %v vs %v", len(got2.Members), got2.Created, got.Created)
	}
	if n := len(s.groups.m); n != 1 {
		t.Fatalf("count = %d", n)
	}
	if l := s.ListRoutingGroups("alice"); len(l) != 1 {
		t.Fatalf("list alice = %d", len(l))
	}
	if l := s.ListRoutingGroups("bob"); len(l) != 0 {
		t.Fatalf("list bob = %d", len(l))
	}
	if _, err := s.GetRoutingGroup(protocol.NewUUID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing group err = %v", err)
	}
	if err := s.PutRoutingGroup(RoutingGroupRecord{ID: "bad"}); err == nil {
		t.Fatal("accepted invalid ID")
	}
	if err := s.PutRoutingGroup(RoutingGroupRecord{ID: protocol.NewUUID()}); err == nil {
		t.Fatal("accepted empty membership")
	}
}

func TestRoutingGroupSnapshotRestore(t *testing.T) {
	s := New()
	g := RoutingGroupRecord{
		ID: protocol.NewUUID(), Name: "fleet", Owner: "alice",
		Members: []protocol.UUID{protocol.NewUUID()},
	}
	if err := s.PutRoutingGroup(g); err != nil {
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
	got, err := s2.GetRoutingGroup(g.ID)
	if err != nil || got.Name != "fleet" || len(got.Members) != 1 {
		t.Fatalf("restored = %+v, %v", got, err)
	}
}

// journalRecorder captures mutations for replay assertions.
type journalRecorder struct{ muts []Mutation }

func (j *journalRecorder) LogMutation(m Mutation) (func(), error) {
	j.muts = append(j.muts, m)
	return nil, nil
}

func TestRoutingGroupJournalReplay(t *testing.T) {
	s := New()
	j := &journalRecorder{}
	s.SetJournal(j)
	created := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	g := RoutingGroupRecord{
		ID: protocol.NewUUID(), Name: "fleet", Owner: "alice",
		Members: []protocol.UUID{protocol.NewUUID()},
		Created: created,
	}
	if err := s.PutRoutingGroup(g); err != nil {
		t.Fatal(err)
	}
	if len(j.muts) != 1 || j.muts[0].Op != OpPutRoutingGroup {
		t.Fatalf("journaled %+v", j.muts)
	}
	// Replay onto a fresh store reproduces the record with its original
	// timestamp.
	s2 := New()
	for _, m := range j.muts {
		if err := s2.ApplyMutation(m); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s2.GetRoutingGroup(g.ID)
	if err != nil || got.Owner != "alice" {
		t.Fatalf("replayed = %+v, %v", got, err)
	}
	if !got.Created.Equal(created) {
		t.Fatalf("replayed Created %v != %v", got.Created, created)
	}
}

// TestRoutingGroupJournalStampsCreated covers the create path (no Created on
// the incoming record): the journaled mutation must already carry the stamped
// Created, so a replay at a later clock reproduces the original creation
// time instead of re-stamping it.
func TestRoutingGroupJournalStampsCreated(t *testing.T) {
	s := New()
	j := &journalRecorder{}
	s.SetJournal(j)
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s.SetClock(func() time.Time { return t0 })
	g := RoutingGroupRecord{
		ID: protocol.NewUUID(), Name: "fleet", Owner: "alice",
		Members: []protocol.UUID{protocol.NewUUID()},
	}
	if err := s.PutRoutingGroup(g); err != nil {
		t.Fatal(err)
	}
	if len(j.muts) != 1 || j.muts[0].RoutingGroup == nil {
		t.Fatalf("journaled %+v", j.muts)
	}
	if !j.muts[0].RoutingGroup.Created.Equal(t0) {
		t.Fatalf("journaled Created = %v, want %v (stamped before logging)",
			j.muts[0].RoutingGroup.Created, t0)
	}
	s2 := New()
	s2.SetClock(func() time.Time { return t0.Add(time.Hour) })
	for _, m := range j.muts {
		if err := s2.ApplyMutation(m); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s2.GetRoutingGroup(g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Created.Equal(t0) {
		t.Fatalf("replayed Created = %v, want %v", got.Created, t0)
	}
}

func TestSetEndpointLoadStampsLoadAt(t *testing.T) {
	s := New()
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s.SetClock(func() time.Time { return t0 })
	ep := protocol.NewUUID()
	if err := s.UpsertEndpoint(EndpointRecord{ID: ep, Owner: "a", Status: EndpointOnline}); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.GetEndpoint(ep)
	if age := rec.LoadAge(t0); age != -1 {
		t.Fatalf("LoadAge before any report = %v, want -1", age)
	}
	if err := s.SetEndpointHeartbeat(ep, EndpointOnline, &EndpointLoad{PendingTasks: 3}); err != nil {
		t.Fatal(err)
	}
	rec, _ = s.GetEndpoint(ep)
	if !rec.LoadAt.Equal(t0) {
		t.Fatalf("LoadAt = %v, want %v", rec.LoadAt, t0)
	}
	if age := rec.LoadAge(t0.Add(5 * time.Second)); age != 5*time.Second {
		t.Fatalf("LoadAge = %v, want 5s", age)
	}
}

func TestGetEndpointsBatch(t *testing.T) {
	s := New()
	var ids []protocol.UUID
	for i := 0; i < 5; i++ {
		id := protocol.NewUUID()
		ids = append(ids, id)
		if err := s.UpsertEndpoint(EndpointRecord{ID: id, Owner: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.GetEndpoints(append(ids[:3:3], protocol.NewUUID()))
	if len(got) != 3 {
		t.Fatalf("got %d records, want 3 (missing skipped)", len(got))
	}
	for i, rec := range got {
		if rec.ID != ids[i] {
			t.Fatalf("order not preserved: %v", got)
		}
	}
}
