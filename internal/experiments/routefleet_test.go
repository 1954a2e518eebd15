// The route fleet behind the placement tests (make route-smoke runs
// TestRouteSmoke): the backpressure-aware placement benchmark. A simulated
// fleet (one lightweight sim agent goroutine per endpoint) serves tasks under 10x skewed per-endpoint service times
// while the webservice fans a routing group's submissions across it. The
// route-random arm is the baseline every fleet implicitly runs today (pick
// an endpoint blindly); route-p2c scores heartbeat load reports with
// power-of-two-choices. At equal offered load the p99 task latency ratio is
// the headline number (acceptance bar: p2c p99 <= 0.5x random p99).

package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/mep"
	"globuscompute/internal/protocol"
	"globuscompute/internal/webservice"
)

// RouteFleetOptions sizes a simulated routing fleet.
type RouteFleetOptions struct {
	// Endpoints is the fleet size (default 2000; the full bench runs 10000,
	// the -race smoke 1000).
	Endpoints int
	// SlowFraction of endpoints run SlowFactor x the base service time —
	// the skew the placement policy must route around. Defaults: 2% at 10x.
	SlowFraction float64
	SlowFactor   int
	// BaseService is a fast endpoint's per-task service time (default 1s;
	// slow endpoints take SlowFactor x this).
	BaseService time.Duration
	// HeartbeatEvery is the per-endpoint load-report cadence, delivered
	// decimated: the pump wakes HeartbeatStripes times per interval and
	// reports one stripe of the fleet per wakeup, the way a 10k fleet's
	// heartbeats arrive spread out rather than in one burst. Defaults to
	// 250ms up to 2500 endpoints and 1s beyond — per-endpoint cadence slows
	// as a fleet grows so the aggregate report rate stays bounded (a 10k
	// fleet at 4 reports/s/endpoint would spend the control plane's whole
	// budget on heartbeats).
	HeartbeatEvery   time.Duration
	HeartbeatStripes int
	// Policy is the routing-group placement policy under test.
	Policy string
}

func (o *RouteFleetOptions) defaults() {
	if o.Endpoints <= 0 {
		o.Endpoints = 2000
	}
	if o.SlowFraction <= 0 {
		o.SlowFraction = 0.02
	}
	if o.SlowFactor <= 0 {
		o.SlowFactor = 10
	}
	if o.BaseService <= 0 {
		o.BaseService = time.Second
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 250 * time.Millisecond
		if o.Endpoints > 2500 {
			o.HeartbeatEvery = time.Second
		}
	}
	if o.HeartbeatStripes <= 0 {
		o.HeartbeatStripes = 10
		if o.Endpoints > 2500 {
			o.HeartbeatStripes = 25
		}
	}
	if o.Policy == "" {
		o.Policy = "p2c"
	}
}

// RouteFleet is a running simulated fleet behind one routing group, served
// by the same in-process cloud stack gc-webservice runs.
type RouteFleet struct {
	*webservice.Stack
	Opts  RouteFleetOptions
	Tok   auth.Token
	Fn    protocol.UUID
	Group protocol.UUID
	// Endpoints lists member IDs in registration order; Slow marks the
	// skewed ones.
	Endpoints []protocol.UUID
	Slow      map[protocol.UUID]bool

	agents []*mep.SimAgent
	// dead[i] is set by stopEndpoint so the heartbeat pump stops reporting
	// the endpoint online (the offline report must stick for rerouting).
	dead    []atomic.Bool
	pumping bool
	stop    chan struct{}
	done    chan struct{}
}

// StartRouteFleet opens an in-memory cloud stack, registers the fleet,
// starts one sim agent per endpoint, wraps every
// endpoint in a routing group running opts.Policy, pre-warms one load report
// per endpoint, and starts the decimated heartbeat pump.
func StartRouteFleet(opts RouteFleetOptions) (*RouteFleet, error) {
	opts.defaults()
	stack, err := webservice.OpenStack(webservice.StackConfig{Service: webservice.Config{
		HeartbeatInterval: opts.HeartbeatEvery,
	}})
	if err != nil {
		return nil, err
	}
	svc := stack.Service
	f := &RouteFleet{
		Stack: stack, Opts: opts,
		Slow: make(map[protocol.UUID]bool, int(float64(opts.Endpoints)*opts.SlowFraction)+1),
		dead: make([]atomic.Bool, opts.Endpoints),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	fail := func(err error) (*RouteFleet, error) {
		f.Stop()
		return nil, err
	}

	f.Tok, err = stack.Auth.Issue(
		auth.Identity{Username: "bench@example.edu", Provider: "bench"},
		[]string{auth.ScopeCompute, auth.ScopeManage}, time.Hour, time.Time{})
	if err != nil {
		return fail(err)
	}
	f.Fn, err = svc.RegisterFunction("bench@example.edu", protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
	if err != nil {
		return fail(err)
	}

	// Register the fleet and start one sim agent per endpoint with skewed
	// service times: every k-th endpoint is slow.
	slowEvery := int(1 / opts.SlowFraction)
	f.Endpoints = make([]protocol.UUID, opts.Endpoints)
	f.agents = make([]*mep.SimAgent, 0, opts.Endpoints)
	for i := range f.Endpoints {
		id, err := svc.RegisterEndpoint(webservice.RegisterEndpointRequest{
			Name: fmt.Sprintf("sim-%d", i), Owner: "bench@example.edu",
		})
		if err != nil {
			return fail(err)
		}
		f.Endpoints[i] = id
		serviceTime := opts.BaseService
		if i%slowEvery == 0 {
			serviceTime = time.Duration(opts.SlowFactor) * opts.BaseService
			f.Slow[id] = true
		}
		a, err := mep.StartSimAgent(mep.SimAgentConfig{
			EndpointID: id, Conn: broker.LocalConn(stack.Broker), ServiceTime: serviceTime,
		})
		if err != nil {
			return fail(err)
		}
		f.agents = append(f.agents, a)
	}

	f.Group, err = svc.CreateRoutingGroup(f.Tok, "sim-fleet", opts.Policy, f.Endpoints)
	if err != nil {
		return fail(err)
	}

	// Pre-warm: one report per endpoint so the first picks score real
	// (idle) reports instead of an all-unknown cold fleet.
	for i, id := range f.Endpoints {
		load := f.agents[i].Load()
		if err := svc.RecordHeartbeat(id, true, &load, nil); err != nil {
			return fail(err)
		}
	}
	f.pumping = true
	go f.heartbeatPump()
	return f, nil
}

// heartbeatPump reports one stripe of the fleet per wakeup, so every
// endpoint reports once per HeartbeatEvery without a fleet-wide burst.
func (f *RouteFleet) heartbeatPump() {
	defer close(f.done)
	stripes := f.Opts.HeartbeatStripes
	tick := time.NewTicker(f.Opts.HeartbeatEvery / time.Duration(stripes))
	defer tick.Stop()
	stripe := 0
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
		}
		for i := stripe; i < len(f.Endpoints); i += stripes {
			if f.dead[i].Load() {
				continue
			}
			load := f.agents[i].Load()
			_ = f.Service.RecordHeartbeat(f.Endpoints[i], true, &load, nil)
		}
		stripe = (stripe + 1) % stripes
	}
}

// stopEndpoint kills one sim agent and reports it offline (churn tests).
// The offline report lands synchronously, so placement stops picking the
// member as soon as its candidate snapshot refreshes.
func (f *RouteFleet) stopEndpoint(i int) {
	f.dead[i].Store(true)
	f.agents[i].Stop()
	_ = f.Service.RecordHeartbeat(f.Endpoints[i], false, nil, nil)
}

// reviveEndpoint restarts a stopped endpoint's sim agent (draining whatever
// its task queue accumulated while dead) and resumes its heartbeats.
func (f *RouteFleet) reviveEndpoint(i int, serviceTime time.Duration) error {
	a, err := mep.StartSimAgent(mep.SimAgentConfig{
		EndpointID: f.Endpoints[i], Conn: broker.LocalConn(f.Broker), ServiceTime: serviceTime,
	})
	if err != nil {
		return err
	}
	f.agents[i] = a
	load := a.Load()
	if err := f.Service.RecordHeartbeat(f.Endpoints[i], true, &load, nil); err != nil {
		return err
	}
	f.dead[i].Store(false)
	return nil
}

// Stop tears the fleet down: heartbeat pump, agents, then the stack.
func (f *RouteFleet) Stop() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
		if f.pumping {
			<-f.done
		}
	}
	for _, a := range f.agents {
		a.Stop()
	}
	_ = f.Stack.Close(context.Background())
}

// routeBatch is the tasks per submit call.
const routeBatch = 32

// RoutePoint is one policy's measurement over the fleet.
type RoutePoint struct {
	Policy       string
	Tasks        int
	AchievedPerS float64
	P50US, P99US float64 // submit-to-completion latency
}

// Run paces n submissions at offered tasks/s through the routing group,
// waits for every task to settle terminal, and reports achieved tasks/s
// (including the drain of whatever queues the policy built) plus p50/p99
// submit-to-completion task latency from the store's records.
func (f *RouteFleet) Run(offered, n int) (RoutePoint, error) {
	batch := make([]webservice.SubmitRequest, routeBatch)
	for i := range batch {
		batch[i] = webservice.SubmitRequest{EndpointID: f.Group, FunctionID: f.Fn, Payload: []byte(`{"entrypoint":"identity","args":[1]}`)}
	}
	ids := make([]protocol.UUID, 0, n)
	start := time.Now()
	for len(ids) < n {
		if offered > 0 {
			due := start.Add(time.Duration(len(ids)) * time.Second / time.Duration(offered))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		k := routeBatch
		if n-len(ids) < k {
			k = n - len(ids)
		}
		got, err := f.Service.Submit(f.Tok, batch[:k])
		if err != nil {
			return RoutePoint{}, fmt.Errorf("route submit after %d tasks: %w", len(ids), err)
		}
		ids = append(ids, got...)
	}
	// Drain: a skew-blind policy parks deep queues on the slow endpoints,
	// so the deadline scales with how much service time one slow endpoint
	// could have queued behind it — budgeted at 3x the mean per-endpoint
	// depth, since the deepest of a few hundred Poisson queues runs well
	// past the mean.
	worst := 3 * time.Duration(f.Opts.SlowFactor) * f.Opts.BaseService * time.Duration(n/f.Opts.Endpoints+2)
	deadline := time.Now().Add(60*time.Second + worst)
	for {
		byState := f.Store.CountTasksByState()
		if byState[protocol.StateSuccess]+byState[protocol.StateFailed] >= n {
			break
		}
		if time.Now().After(deadline) {
			return RoutePoint{}, fmt.Errorf("route fleet stalled: %v", byState)
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)

	recs := f.Store.GetTaskRecords(ids)
	latencies := make([]time.Duration, 0, len(ids))
	for _, id := range ids {
		rec, ok := recs[id]
		if !ok || rec.Completed.IsZero() {
			continue
		}
		latencies = append(latencies, rec.Completed.Sub(rec.Created))
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pctUS := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		return float64(latencies[int(p*float64(len(latencies)-1))].Microseconds())
	}
	return RoutePoint{
		Policy:       f.Opts.Policy,
		Tasks:        n,
		AchievedPerS: float64(n) / elapsed.Seconds(),
		P50US:        pctUS(0.50),
		P99US:        pctUS(0.99),
	}, nil
}

// routeArm runs one policy over a fresh simulated fleet. Offered load and
// task count scale with the fleet so every arm runs the same per-endpoint
// pressure: 0.4 tasks/s per endpoint for ~15 seconds (6 tasks per
// endpoint). At the default 1s/10x skew that is 4x a slow endpoint's
// capacity — a skew-blind policy drowns its slow members (and every task
// queued behind them) while the fast fleet runs at 40% utilization.
//
// The 6-task depth is the p99 margin. Heartbeat-only scoring has a floor: a
// slow endpoint is indistinguishable from a fast one until its first report
// shows queued work (first-touch picks), and a slow member whose queue has
// drained back to depth 1 ties with any busy fast member, so it re-attracts
// roughly one task per service time. That floors a load-aware policy's
// slow-task share near 1% here — its p99 sits at one slow service time —
// while a blind policy's slow queues (and its p99) keep growing linearly
// with depth. The headline is that ratio; at 2 tasks per endpoint both
// effects sit on the same boundary and the ratio collapses.
func routeArm(policy string, fleetN int) (RoutePoint, error) {
	runtime.GC()
	f, err := StartRouteFleet(RouteFleetOptions{Endpoints: fleetN, Policy: policy})
	if err != nil {
		return RoutePoint{}, err
	}
	defer f.Stop()
	offered := 2 * fleetN / 5
	n := 6 * fleetN
	return f.Run(offered, n)
}
