package webservice

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
)

// newRoutingFixture is newFixture with routing-relevant config knobs.
func newRoutingFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	f := &fixture{
		store: statestore.New(),
		brk:   broker.New(),
		objs:  objectstore.New(),
		authS: auth.NewService(),
	}
	cfg := Config{Store: f.store, Broker: f.brk, Objects: f.objs, Auth: f.authS}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.svc = svc
	tok, err := f.authS.Issue(
		auth.Identity{Username: "alice@uchicago.edu", Provider: "uchicago"},
		[]string{auth.ScopeCompute, auth.ScopeManage}, time.Hour, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	f.token = tok
	t.Cleanup(func() {
		f.svc.Close()
		f.brk.Close()
	})
	return f
}

// groupOf registers n online endpoints with echo agents and wraps them in a
// routing group.
func groupOf(t *testing.T, f *fixture, n int, policy string) (protocol.UUID, []protocol.UUID) {
	t.Helper()
	members := make([]protocol.UUID, n)
	for i := range members {
		members[i] = f.registerEndpoint(t, RegisterEndpointRequest{
			Name: fmt.Sprintf("ep-%d", i), Owner: "alice@uchicago.edu",
		})
		f.fakeAgent(t, members[i])
	}
	gid, err := f.svc.CreateRoutingGroup(f.token, "fleet", policy, members)
	if err != nil {
		t.Fatal(err)
	}
	return gid, members
}

func TestRoutingGroupSubmitFansOut(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	gid, members := groupOf(t, f, 3, "round-robin")

	const tasks = 9
	reqs := make([]SubmitRequest, tasks)
	for i := range reqs {
		reqs[i] = SubmitRequest{EndpointID: gid, FunctionID: fn, Payload: []byte("{}")}
	}
	ids, err := f.svc.Submit(f.token, reqs)
	if err != nil {
		t.Fatal(err)
	}
	perMember := map[protocol.UUID]int{}
	for _, id := range ids {
		st := waitTask(t, f.svc, id, 5*time.Second)
		if st.State != protocol.StateSuccess {
			t.Fatalf("task %s ended %s: %s", id, st.State, st.Error)
		}
		rec, err := f.store.GetTask(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Task.RoutingGroup != gid {
			t.Fatalf("task %s routing_group = %q, want %s", id, rec.Task.RoutingGroup, gid)
		}
		perMember[rec.Task.EndpointID]++
	}
	// Round-robin over one batch spreads exactly evenly.
	for _, m := range members {
		if perMember[m] != tasks/len(members) {
			t.Fatalf("uneven spread %v over members %v", perMember, members)
		}
	}
}

func TestRoutingGroupValidation(t *testing.T) {
	f := newFixture(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "a", Owner: "alice@uchicago.edu"})
	mep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "m", Owner: "alice@uchicago.edu", MultiUser: true})

	if _, err := f.svc.CreateRoutingGroup(f.token, "g", "p2c", nil); err == nil {
		t.Error("accepted empty membership")
	}
	if _, err := f.svc.CreateRoutingGroup(f.token, "g", "warp", []protocol.UUID{ep}); err == nil {
		t.Error("accepted unknown policy")
	}
	if _, err := f.svc.CreateRoutingGroup(f.token, "g", "p2c", []protocol.UUID{ep, ep}); err == nil {
		t.Error("accepted duplicate member")
	}
	if _, err := f.svc.CreateRoutingGroup(f.token, "g", "p2c", []protocol.UUID{mep}); err == nil {
		t.Error("accepted multi-user member")
	}
	if _, err := f.svc.CreateRoutingGroup(f.token, "g", "p2c", []protocol.UUID{protocol.NewUUID()}); err == nil {
		t.Error("accepted unregistered member")
	}
	weak, _ := f.authS.Issue(auth.Identity{Username: "bob@anl.gov", Provider: "anl"},
		[]string{auth.ScopeCompute}, time.Hour, time.Time{})
	if _, err := f.svc.CreateRoutingGroup(weak, "g", "p2c", []protocol.UUID{ep}); err == nil {
		t.Error("compute-only token created a routing group")
	}

	gid, err := f.svc.CreateRoutingGroup(f.token, "g", "p2c", []protocol.UUID{ep})
	if err != nil {
		t.Fatal(err)
	}
	bob, _ := f.authS.Issue(auth.Identity{Username: "bob@anl.gov", Provider: "anl"},
		[]string{auth.ScopeCompute, auth.ScopeManage}, time.Hour, time.Time{})
	if err := f.svc.UpdateRoutingGroup(bob, gid, "", []protocol.UUID{ep}); err == nil {
		t.Error("non-owner updated the group")
	}
	ep2 := f.registerEndpoint(t, RegisterEndpointRequest{Name: "b", Owner: "alice@uchicago.edu"})
	if err := f.svc.UpdateRoutingGroup(f.token, gid, "round-robin", []protocol.UUID{ep, ep2}); err != nil {
		t.Fatal(err)
	}
	got, err := f.svc.GetRoutingGroup(gid)
	if err != nil || got.Policy != "round-robin" || len(got.Members) != 2 {
		t.Fatalf("updated group = %+v, %v", got, err)
	}
}

func TestRoutingGroupP2CPrefersIdle(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	gid, members := groupOf(t, f, 2, "p2c")
	heavy, idle := members[0], members[1]

	bl := 0
	if err := f.store.SetEndpointHeartbeat(heavy, statestore.EndpointOnline, &statestore.EndpointLoad{
		PendingTasks: 1000, TotalWorkers: 4, FreeWorkers: 0, EgressBacklog: &bl,
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.store.SetEndpointHeartbeat(idle, statestore.EndpointOnline, &statestore.EndpointLoad{
		PendingTasks: 0, TotalWorkers: 4, FreeWorkers: 4, EgressBacklog: &bl,
	}); err != nil {
		t.Fatal(err)
	}

	const tasks = 40
	reqs := make([]SubmitRequest, tasks)
	for i := range reqs {
		reqs[i] = SubmitRequest{EndpointID: gid, FunctionID: fn, Payload: []byte("{}")}
	}
	ids, err := f.svc.Submit(f.token, reqs)
	if err != nil {
		t.Fatal(err)
	}
	heavyPicks := 0
	for _, id := range ids {
		rec, _ := f.store.GetTask(id)
		if rec.Task.EndpointID == heavy {
			heavyPicks++
		}
	}
	// p2c compares both members on every pick; the 250x-loaded one should
	// essentially never win (hysteresis charges on the idle member stay far
	// below the load gap).
	if heavyPicks > tasks/10 {
		t.Fatalf("heavy member won %d/%d picks", heavyPicks, tasks)
	}
	if v := f.svc.Routing.Counter("route_picks").Value(); v < tasks {
		t.Fatalf("route_picks = %d, want >= %d", v, tasks)
	}
}

func TestRoutingGroupRerouteOnBacklogShed(t *testing.T) {
	f := newRoutingFixture(t, func(c *Config) { c.BacklogShedThreshold = 10 })
	fn := f.registerFunction(t)
	gid, members := groupOf(t, f, 2, "round-robin")
	shedding, ok := members[0], members[1]

	big, zero := 100, 0
	if err := f.store.SetEndpointHeartbeat(shedding, statestore.EndpointOnline, &statestore.EndpointLoad{
		TotalWorkers: 4, EgressBacklog: &big,
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.store.SetEndpointHeartbeat(ok, statestore.EndpointOnline, &statestore.EndpointLoad{
		TotalWorkers: 4, FreeWorkers: 4, EgressBacklog: &zero,
	}); err != nil {
		t.Fatal(err)
	}

	reqs := make([]SubmitRequest, 6)
	for i := range reqs {
		reqs[i] = SubmitRequest{EndpointID: gid, FunctionID: fn, Payload: []byte("{}")}
	}
	ids, err := f.svc.Submit(f.token, reqs)
	if err != nil {
		t.Fatal(err)
	}
	sawReroute := false
	for _, id := range ids {
		rec, _ := f.store.GetTask(id)
		if rec.Task.EndpointID != ok {
			t.Fatalf("task %s placed on shedding member", id)
		}
		if rec.Task.Rerouted > 0 {
			sawReroute = true
		}
	}
	if !sawReroute {
		t.Error("round-robin over a shedding member never recorded a reroute")
	}
	if v := f.svc.Routing.Counter("route_reroutes").Value(); v == 0 {
		t.Error("route_reroutes stayed 0")
	}

	// Every member over threshold: the submission surfaces the shed as an
	// overload, not a routing failure.
	if err := f.store.SetEndpointHeartbeat(ok, statestore.EndpointOnline, &statestore.EndpointLoad{
		TotalWorkers: 4, EgressBacklog: &big,
	}); err != nil {
		t.Fatal(err)
	}
	f.svc.invalidateGroupRoute(gid)
	var oe *OverloadError
	_, err = f.svc.Submit(f.token, []SubmitRequest{{EndpointID: gid, FunctionID: fn, Payload: []byte("{}")}})
	if !errors.As(err, &oe) {
		t.Fatalf("fully-shedding group returned %v, want OverloadError", err)
	}
}

func TestStaleLoadReportNotTrusted(t *testing.T) {
	f := newRoutingFixture(t, func(c *Config) { c.BacklogShedThreshold = 10 })
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "a", Owner: "alice@uchicago.edu"})
	f.fakeAgent(t, ep)

	// A huge backlog reported long ago (a dead agent's last words) must not
	// shed traffic forever: older than 3 heartbeat intervals = unknown.
	big := 100
	past := time.Now().Add(-time.Minute)
	f.store.SetClock(func() time.Time { return past })
	if err := f.store.SetEndpointHeartbeat(ep, statestore.EndpointOnline, &statestore.EndpointLoad{TotalWorkers: 4, EgressBacklog: &big}); err != nil {
		t.Fatal(err)
	}
	f.store.SetClock(time.Now)

	ids, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte("{}")}})
	if err != nil {
		t.Fatalf("stale backlog report shed a direct submit: %v", err)
	}
	if st := waitTask(t, f.svc, ids[0], 5*time.Second); st.State != protocol.StateSuccess {
		t.Fatalf("task ended %s", st.State)
	}

	// The same report, fresh, sheds.
	if err := f.store.SetEndpointHeartbeat(ep, statestore.EndpointOnline, &statestore.EndpointLoad{TotalWorkers: 4, EgressBacklog: &big}); err != nil {
		t.Fatal(err)
	}
	var oe *OverloadError
	if _, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte("{}")}}); !errors.As(err, &oe) {
		t.Fatalf("fresh over-threshold backlog returned %v, want OverloadError", err)
	}
}

// TestRoutePickConcurrentWithRefresh hammers one group from many goroutines
// with a cache TTL short enough that picks and snapshot refreshes overlap
// continuously. Regression for a data race where the refresh mutated the
// cached record map in place while routePick read it lock-free; run under
// -race this crashed with a concurrent map read/write.
func TestRoutePickConcurrentWithRefresh(t *testing.T) {
	f := newRoutingFixture(t, func(c *Config) { c.HeartbeatInterval = 40 * time.Millisecond })
	gid, _ := groupOf(t, f, 4, "p2c")

	var wg sync.WaitGroup
	deadline := time.Now().Add(150 * time.Millisecond)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, _, err := f.svc.routePick(gid, false); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRoutingGroupSurvivesRestartViaSnapshot(t *testing.T) {
	f := newFixture(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "a", Owner: "alice@uchicago.edu"})
	gid, err := f.svc.CreateRoutingGroup(f.token, "fleet", "p2c", []protocol.UUID{ep})
	if err != nil {
		t.Fatal(err)
	}
	img, err := f.store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := statestore.New()
	if err := s2.Restore(img); err != nil {
		t.Fatal(err)
	}
	got, err := s2.GetRoutingGroup(gid)
	if err != nil || len(got.Members) != 1 || got.Members[0] != ep {
		t.Fatalf("restored group = %+v, %v", got, err)
	}
}
