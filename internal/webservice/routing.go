package webservice

import (
	"errors"
	"fmt"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/placement"
	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
)

// Routing groups: a group UUID is accepted anywhere an endpoint UUID is at
// submit time, and the service fans each task of the batch across the
// group's members through the group's placement policy, scored on the load
// reports heartbeats already carry. Membership is a journaled statestore
// record, so groups survive a -data-dir restart; the selector state
// (round-robin cursors, hysteresis charges, candidate snapshots) is
// ephemeral per process, rebuilt lazily on first use.

// ErrNotRoutable is wrapped when a routing-group submission cannot place a
// task on any member.
var ErrNotRoutable = errors.New("webservice: no routable member in group")

// routeCacheTTL bounds how often the submit hot path re-reads a group's
// member records from the statestore. Picks between refreshes run on the
// cached snapshot (the selector's hysteresis covers the gap), so a 10k-member
// group costs one bulk read per TTL, not per task.
const routeCacheTTL = 25 * time.Millisecond

// cacheTTL is the effective candidate-snapshot TTL: member records only
// change as heartbeats arrive, so refreshing faster than a quarter interval
// buys no freshness — it just re-copies a 10k-member group's records onto
// the submit path. Small groups (or short intervals) keep the 25ms floor.
func (s *Service) cacheTTL() time.Duration {
	if q := s.cfg.HeartbeatInterval / 4; q > routeCacheTTL {
		return q
	}
	return routeCacheTTL
}

// rerouteAttempts caps how many members one submission tries when picks keep
// landing on shedding endpoints before giving up and surfacing the shed.
const rerouteAttempts = 4

// groupRoute is the per-group routing state: the policy selector, the
// member list, and a TTL-cached snapshot of member records and placement
// candidates. The submit hot path runs entirely on this cache — the store's
// group record (with its defensively-copied 10k-member slice) is read once
// on first use and again only after UpdateRoutingGroup invalidates, never
// per task.
type groupRoute struct {
	sel     *placement.Selector
	policy  string
	members []protocol.UUID

	// Reference swaps are guarded by Service.routeMu; the slice and map
	// themselves are immutable once published (refreshes build fresh ones),
	// so routePick may keep reading a snapshot after dropping the lock.
	// The selector has its own lock for the pick itself.
	fetched time.Time
	cands   []placement.Candidate
	recs    map[protocol.UUID]statestore.EndpointRecord
}

// newSelector builds a placement selector on the service's staleness horizon
// and routing registry.
func (s *Service) newSelector(policy string) (*placement.Selector, error) {
	return placement.New(placement.Config{
		Policy:            placement.Policy(policy),
		HeartbeatInterval: s.cfg.HeartbeatInterval,
		StaleAfter:        s.staleAfter(),
		Metrics:           s.Routing,
	})
}

// staleAfter is the load-report trust horizon: three heartbeat intervals,
// shared by placement scoring and the backlog-shed path.
func (s *Service) staleAfter() time.Duration { return 3 * s.cfg.HeartbeatInterval }

// CreateRoutingGroup registers a routing group over existing endpoints.
// Members must be registered, non-multi-user endpoints (a MEP resolves to
// per-user children at submit time, which would make group fan-out
// ambiguous). Requires the manage scope, like registering a MEP.
func (s *Service) CreateRoutingGroup(tok auth.Token, name, policy string, members []protocol.UUID) (protocol.UUID, error) {
	if !tok.HasScope(auth.ScopeManage) {
		return "", errors.New("webservice: routing group registration requires the manage scope")
	}
	if err := s.validateGroupSpec(policy, members); err != nil {
		return "", err
	}
	id := protocol.NewUUID()
	err := s.cfg.Store.PutRoutingGroup(statestore.RoutingGroupRecord{
		ID: id, Name: name, Owner: tok.Identity.Username,
		Policy: policy, Members: members,
	})
	s.audit(tok.Identity.Username, "create_routing_group", id, err,
		fmt.Sprintf("%d members, policy=%s", len(members), policyOrDefault(policy)))
	if err != nil {
		return "", err
	}
	s.Metrics.Counter("routing_groups_created").Inc()
	return id, nil
}

// UpdateRoutingGroup replaces a group's membership (and optionally policy),
// revalidating both. Only the owner may update; the cached selector state is
// dropped so the next pick sees the new membership immediately.
func (s *Service) UpdateRoutingGroup(tok auth.Token, id protocol.UUID, policy string, members []protocol.UUID) error {
	g, err := s.cfg.Store.GetRoutingGroup(id)
	if err != nil {
		return err
	}
	if g.Owner != tok.Identity.Username {
		return errors.New("webservice: not the routing group owner")
	}
	if policy == "" {
		policy = g.Policy
	}
	if err := s.validateGroupSpec(policy, members); err != nil {
		return err
	}
	g.Policy, g.Members = policy, members
	if err := s.cfg.Store.PutRoutingGroup(g); err != nil {
		return err
	}
	s.invalidateGroupRoute(id)
	s.audit(tok.Identity.Username, "update_routing_group", id, nil,
		fmt.Sprintf("%d members, policy=%s", len(members), policyOrDefault(policy)))
	return nil
}

// validateGroupSpec checks a group's policy name and membership: members
// must be registered, distinct, non-multi-user endpoints.
func (s *Service) validateGroupSpec(policy string, members []protocol.UUID) error {
	if len(members) == 0 {
		return errors.New("webservice: routing group needs at least one member")
	}
	if policy != "" {
		if _, err := placement.New(placement.Config{Policy: placement.Policy(policy)}); err != nil {
			return err
		}
	}
	seen := make(map[protocol.UUID]bool, len(members))
	for _, m := range members {
		if seen[m] {
			return fmt.Errorf("webservice: duplicate member %s", m)
		}
		seen[m] = true
		ep, err := s.cfg.Store.GetEndpoint(m)
		if err != nil {
			return fmt.Errorf("webservice: member %s: %w", m, err)
		}
		if ep.MultiUser {
			return fmt.Errorf("webservice: member %s is a multi-user endpoint", m)
		}
	}
	return nil
}

// GetRoutingGroup fetches a routing group record.
func (s *Service) GetRoutingGroup(id protocol.UUID) (statestore.RoutingGroupRecord, error) {
	return s.cfg.Store.GetRoutingGroup(id)
}

// ListRoutingGroups lists routing groups owned by the identity.
func (s *Service) ListRoutingGroups(owner string) []statestore.RoutingGroupRecord {
	return s.cfg.Store.ListRoutingGroups(owner)
}

// policyOrDefault names a group's placement policy: p2c unless the group
// record carries one.
func policyOrDefault(policy string) string {
	if policy == "" {
		return string(placement.PolicyP2C)
	}
	return policy
}

func (s *Service) invalidateGroupRoute(id protocol.UUID) {
	s.routeMu.Lock()
	delete(s.routeGroups, id)
	s.routeMu.Unlock()
}

// groupRouteFor returns the cached routing state for a group, reading the
// group record from the store only on first use (UpdateRoutingGroup
// invalidates the cache, so policy and membership changes rebuild it), and
// refreshes the candidate snapshot when it is older than the cache TTL.
// Returns the store's ErrNotFound (wrapped) when the ID is not a routing
// group.
func (s *Service) groupRouteFor(id protocol.UUID, now time.Time) (*groupRoute, error) {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	gr, ok := s.routeGroups[id]
	if !ok {
		g, err := s.cfg.Store.GetRoutingGroup(id)
		if err != nil {
			return nil, err
		}
		policy := policyOrDefault(g.Policy)
		sel, err := s.newSelector(policy)
		if err != nil {
			return nil, err
		}
		gr = &groupRoute{sel: sel, policy: policy, members: g.Members}
		s.routeGroups[id] = gr
	}
	if now.Sub(gr.fetched) >= s.cacheTTL() || gr.cands == nil {
		// Build fresh snapshots and swap the references: routePick reads
		// the previous cands/recs outside routeMu, so the maps and slices
		// already handed out must never be mutated in place. A fresh map
		// also drops members deleted from the store since the last refresh.
		recs := s.cfg.Store.GetEndpoints(gr.members)
		cands := make([]placement.Candidate, 0, len(recs))
		byID := make(map[protocol.UUID]statestore.EndpointRecord, len(recs))
		for _, ep := range recs {
			cands = append(cands, candidateFor(ep))
			byID[ep.ID] = ep
		}
		gr.cands, gr.recs = cands, byID
		gr.fetched = now
	}
	return gr, nil
}

// candidateFor projects an endpoint record onto a placement candidate.
func candidateFor(ep statestore.EndpointRecord) placement.Candidate {
	c := placement.Candidate{
		ID:            ep.ID,
		Online:        ep.Status == statestore.EndpointOnline,
		EgressBacklog: -1,
		ReportedAt:    ep.LoadAt,
	}
	if ep.Load != nil {
		c.QueuedIntake = ep.Load.PendingTasks
		c.FreeWorkers = ep.Load.FreeWorkers
		c.TotalWorkers = ep.Load.TotalWorkers
		if ep.Load.EgressBacklog != nil {
			c.EgressBacklog = *ep.Load.EgressBacklog
		}
	}
	return c
}

// routePick places one task within a routing group: pick a member by the
// group's policy, run the backlog shed check against the member's (cached)
// record, and on a shed re-pick among the remaining members. It returns the
// chosen member's record and how many reroutes it took. When every tried
// member sheds, the last shed error surfaces so the client backs off — a
// fully-saturated group is an overload, not a routing failure.
func (s *Service) routePick(id protocol.UUID, interactive bool) (statestore.EndpointRecord, int, error) {
	now := time.Now()
	gr, err := s.groupRouteFor(id, now)
	if err != nil {
		return statestore.EndpointRecord{}, 0, err
	}
	s.routeMu.Lock()
	cands := gr.cands
	recs := gr.recs
	s.routeMu.Unlock()

	var lastShed error
	pool := cands
	for attempt := 0; attempt <= rerouteAttempts && len(pool) > 0; attempt++ {
		c, err := gr.sel.Pick(pool, now)
		if err != nil {
			break
		}
		ep, ok := recs[c.ID]
		if !ok { // member record vanished between refreshes
			pool = withoutCandidate(pool, c.ID)
			continue
		}
		if err := s.checkBacklogRecord(ep, interactive); err != nil {
			lastShed = err
			gr.sel.NoteReroute()
			pool = withoutCandidate(pool, c.ID)
			continue
		}
		s.observeRouted(ep.ID)
		return ep, attempt, nil
	}
	if lastShed != nil {
		return statestore.EndpointRecord{}, 0, lastShed
	}
	return statestore.EndpointRecord{}, 0, fmt.Errorf("%w: group %s (%d members)", ErrNotRoutable, id, len(gr.members))
}

// withoutCandidate copies the pool minus one member (pools are small cached
// slices; reroutes are the rare path).
func withoutCandidate(pool []placement.Candidate, id protocol.UUID) []placement.Candidate {
	out := make([]placement.Candidate, 0, len(pool)-1)
	for _, c := range pool {
		if c.ID != id {
			out = append(out, c)
		}
	}
	return out
}

// observeRouted records a policy-driven placement against the member's
// fleet-local registry; gc-top derives each endpoint's routed share from the
// merged ws_routed counters.
func (s *Service) observeRouted(target protocol.UUID) {
	if loc := s.Fleet.Local(string(target)); loc != nil {
		loc.Counter("routed").Inc()
	}
}
