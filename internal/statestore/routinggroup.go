package statestore

import (
	"fmt"
	"sync"
	"time"

	"globuscompute/internal/protocol"
)

// Routing groups: a group UUID stands in for an endpoint UUID at submit
// time, and the web service fans each task across the group's members
// through a placement policy (see internal/placement). The table is
// journaled — group membership is control-plane state that must survive a
// -data-dir restart, unlike the ephemeral load reports the policies score
// on.

// RoutingGroupRecord is one registered routing group.
type RoutingGroupRecord struct {
	ID    protocol.UUID `json:"id"`
	Name  string        `json:"name"`
	Owner string        `json:"owner"`
	// Policy names the placement policy ("random", "round-robin",
	// "least-backlog", "p2c"); empty uses the service default.
	Policy  string          `json:"policy,omitempty"`
	Members []protocol.UUID `json:"members"`
	Created time.Time       `json:"created"`
}

// groupTable is the routing-group table; its own lock keeps group reads off
// the endpoint table's mutex.
type groupTable struct {
	mu sync.RWMutex
	m  map[protocol.UUID]*RoutingGroupRecord
}

func (t *groupTable) init() { t.m = make(map[protocol.UUID]*RoutingGroupRecord) }

// PutRoutingGroup inserts or replaces a routing group (replacement updates
// membership and policy; Created is preserved). The write is journaled.
func (s *Store) PutRoutingGroup(rec RoutingGroupRecord) error {
	if !rec.ID.Valid() {
		return fmt.Errorf("statestore: invalid routing group ID %q", rec.ID)
	}
	if len(rec.Members) == 0 {
		return fmt.Errorf("statestore: routing group %s has no members", rec.ID)
	}
	rec.Members = append([]protocol.UUID(nil), rec.Members...)
	// Resolve Created before journaling so the WAL carries the same record
	// the table keeps: a replay after crash must not re-stamp the group's
	// creation time with the replay-time clock.
	if rec.Created.IsZero() {
		s.groups.mu.RLock()
		old, ok := s.groups.m[rec.ID]
		s.groups.mu.RUnlock()
		if ok {
			rec.Created = old.Created
		} else {
			rec.Created = s.now()
		}
	}
	done, err := s.logMutation(Mutation{Op: OpPutRoutingGroup, RoutingGroup: &rec})
	if err != nil {
		return err
	}
	if done != nil {
		defer done()
	}
	s.groups.mu.Lock()
	defer s.groups.mu.Unlock()
	s.groups.m[rec.ID] = &rec
	return nil
}

// GetRoutingGroup fetches a routing group record.
func (s *Store) GetRoutingGroup(id protocol.UUID) (RoutingGroupRecord, error) {
	s.groups.mu.RLock()
	defer s.groups.mu.RUnlock()
	rec, ok := s.groups.m[id]
	if !ok {
		return RoutingGroupRecord{}, fmt.Errorf("%w: routing group %s", ErrNotFound, id)
	}
	out := *rec
	out.Members = append([]protocol.UUID(nil), rec.Members...)
	return out, nil
}

// ListRoutingGroups returns all routing groups, optionally filtered by
// owner.
func (s *Store) ListRoutingGroups(owner string) []RoutingGroupRecord {
	s.groups.mu.RLock()
	defer s.groups.mu.RUnlock()
	var out []RoutingGroupRecord
	for _, rec := range s.groups.m {
		if owner != "" && rec.Owner != owner {
			continue
		}
		cp := *rec
		cp.Members = append([]protocol.UUID(nil), rec.Members...)
		out = append(out, cp)
	}
	return out
}
