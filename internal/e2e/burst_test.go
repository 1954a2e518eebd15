package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/mep"
	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
	"globuscompute/internal/webservice"
)

// The burst fleet: 16 simulated endpoints at 20 ms a task drain 800 tasks/s
// behind one p2c routing group, heartbeating their load every 500 ms.
const (
	burstFleetSize   = 16
	burstServiceTime = 20 * time.Millisecond
	burstHeartbeat   = 500 * time.Millisecond
	burstSampleEvery = 500 * time.Millisecond
)

// burstPhases is the offered load: a quarter of the fleet's capacity, then
// twice its capacity for 4 s, then a quarter again while the backlog drains.
var burstPhases = []struct {
	name string
	rate float64 // tasks/s
	dur  time.Duration
}{
	{"steady", 200, 6 * time.Second},
	{"burst", 1600, 4 * time.Second},
	{"recovery", 200, 12 * time.Second},
}

// The KPI thresholds: steady backlog p95 at most maxSteadyP95; after the
// burst, the trailing recoveryWindow-sample backlog p95 falls to
// max(2 x steady p95, recoveryFloor) within recoverWithin samples.
const (
	maxSteadyP95   = 96
	recoveryFloor  = 64
	recoveryWindow = 4
	recoverWithin  = 24
)

// burstSample is one poll of the running service.
type burstSample struct {
	offset      time.Duration
	backlog     float64 // Σ pending + egress on /debug/fleet + Σ broker task-queue depth
	shedTotal   float64 // gc_shed_total
	serviceRate float64 // Σ gc_endpoint_service_rate_tasks_per_second on /metrics/fleet
}

// TestBurstBacklogRecovers runs the real gc-webservice in front of a
// simulated fleet and checks that a routed fleet absorbs a burst at twice its
// drain capacity and drains it: no shed and a small backlog while load is
// steady, a backlog that falls back within 12 s of the burst's end, and every
// accepted task terminal at the end. Gated on GC_BURST (make burst).
func TestBurstBacklogRecovers(t *testing.T) {
	if os.Getenv("GC_BURST") == "" {
		t.Skip("burst suite skipped: set GC_BURST=1 (or run `make burst`)")
	}
	bins := buildBinaries(t)
	ws := startProcess(t, filepath.Join(bins, "gc-webservice"),
		"-http", "127.0.0.1:0", "-broker", "127.0.0.1:0", "-objects", "127.0.0.1:0")
	api := ws.waitMatch(t, `REST API:\s+http://(\S+)`, 15*time.Second)
	brokerAddr := ws.waitMatch(t, `broker:\s+(\S+)`, 15*time.Second)
	token := ws.waitMatch(t, `bootstrap token \([^)]*\): (\S+)`, 15*time.Second)

	client := sdk.NewClient(api, token)
	group := startBurstFleet(t, client, api, token, brokerAddr)
	fn, err := client.RegisterFunction(protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	load := offerBurstLoad(ctx, api, token, group, fn, start)
	t.Cleanup(func() {
		cancel()
		<-load.done
	})
	var samples []burstSample
	steadyEnd := burstPhases[0].dur
	burstEnd := steadyEnd + burstPhases[1].dur
	tick := time.NewTicker(burstSampleEvery)
	for post := 0; post < recoverWithin; {
		now := <-tick.C
		s, err := sampleBurst(api, token)
		if err != nil {
			t.Fatalf("sample: %v", err)
		}
		s.offset = now.Sub(start)
		samples = append(samples, s)
		if s.offset >= burstEnd {
			post++
		}
	}
	tick.Stop()
	<-load.done

	var steady, after []float64
	sawRate := false
	for _, s := range samples {
		switch {
		case s.offset < steadyEnd:
			steady = append(steady, s.backlog)
			sawRate = sawRate || s.serviceRate > 10
			if s.shedTotal > 0 {
				t.Errorf("gc_shed_total %.0f at +%v, in the steady phase", s.shedTotal, s.offset)
			}
		case s.offset >= burstEnd:
			after = append(after, s.backlog)
		}
	}
	t.Logf("accepted %d, shed %d (steady %d); backlog by sample: %v",
		load.accepted, load.shed, load.steadyShed, backlogs(samples))
	if load.steadyShed > 0 {
		t.Errorf("%d tasks shed in the steady phase", load.steadyShed)
	}
	if load.errs > 0 {
		t.Errorf("%d submits failed other than by a shed; first: %v", load.errs, load.firstErr)
	}
	if !sawRate {
		t.Error("no steady sample read a fleet service-rate sum above 10 tasks/s on /metrics/fleet")
	}
	steadyP95 := percentile(steady, 0.95)
	if len(steady) < 4 || steadyP95 > maxSteadyP95 {
		t.Errorf("steady backlog p95 %.0f over %d samples, want <= %d over >= 4", steadyP95, len(steady), maxSteadyP95)
	}
	target := max(2*steadyP95, recoveryFloor)
	if recovered := recoveredAt(after, target); recovered < 0 {
		t.Errorf("backlog did not recover: the trailing %d-sample p95 never fell to %.0f within %d samples of the burst's end: %v",
			recoveryWindow, target, recoverWithin, after)
	} else {
		t.Logf("steady backlog p95 %.0f; recovered to <= %.0f %d samples after the burst", steadyP95, target, recovered)
	}

	// Every accepted task reaches a terminal state.
	var usage webservice.UsageStats
	deadline := time.Now().Add(30 * time.Second)
	for {
		if usage, err = client.Usage(); err != nil {
			t.Fatal(err)
		}
		terminal := 0
		for st, n := range usage.TasksByState {
			if st.Terminal() {
				terminal += n
			}
		}
		if terminal == int(load.accepted) && usage.Tasks == terminal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d accepted tasks, %d terminal after the drain: %v", load.accepted, terminal, usage.TasksByState)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// recoveredAt returns the first post-burst sample index at which the
// trailing recoveryWindow-sample backlog p95 is at most target, or -1 when
// that does not happen within recoverWithin samples.
func recoveredAt(after []float64, target float64) int {
	for i := recoveryWindow - 1; i < len(after) && i < recoverWithin; i++ {
		if percentile(after[i-recoveryWindow+1:i+1], 0.95) <= target {
			return i
		}
	}
	return -1
}

// TestBurstRecoveryWindow pins the recovery rule on synthetic post-burst
// series: a backlog that decays under its target recovers at the first full
// window below it; one that never falls, or falls only after recoverWithin
// samples, does not.
func TestBurstRecoveryWindow(t *testing.T) {
	series := func(n int, at func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = at(i)
		}
		return out
	}
	decaying := series(30, func(i int) float64 { return max(800-100*float64(i), 10) })
	if got := recoveredAt(decaying, 64); got != 11 {
		t.Errorf("decaying backlog recovered at sample %d, want 11 (samples 8-11 all under 64)", got)
	}
	stuck := series(30, func(int) float64 { return 800 })
	if got := recoveredAt(stuck, 64); got != -1 {
		t.Errorf("stuck backlog recovered at sample %d", got)
	}
	late := series(30, func(i int) float64 {
		if i < 22 {
			return 800
		}
		return 10
	})
	if got := recoveredAt(late, 64); got != -1 {
		t.Errorf("backlog that fell only at sample 22 recovered at %d, past the %d-sample limit", got, recoverWithin)
	}
}

// startBurstFleet registers the fleet, attaches a sim agent to each endpoint
// over one broker connection, heartbeats their load (p2c scores load
// reports) and returns the p2c routing group over them.
func startBurstFleet(t *testing.T, client *sdk.Client, api, token, brokerAddr string) protocol.UUID {
	t.Helper()
	conn, err := broker.Connect(brokerAddr, "")
	if err != nil {
		t.Fatalf("dial broker: %v", err)
	}
	var eps []protocol.UUID
	var agents []*mep.SimAgent
	for i := 0; i < burstFleetSize; i++ {
		reg, err := client.RegisterEndpoint(webservice.RegisterEndpointRequest{Name: fmt.Sprintf("sim-%02d", i)})
		if err != nil {
			t.Fatalf("register endpoint %d: %v", i, err)
		}
		agent, err := mep.StartSimAgent(mep.SimAgentConfig{EndpointID: reg.EndpointID, Conn: conn, ServiceTime: burstServiceTime})
		if err != nil {
			t.Fatalf("start sim agent %d: %v", i, err)
		}
		eps, agents = append(eps, reg.EndpointID), append(agents, agent)
	}
	heartbeat := func() {
		for i, a := range agents {
			load := a.Load()
			_ = client.Heartbeat(eps[i], true, &load, nil)
		}
	}
	heartbeat()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(burstHeartbeat)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				heartbeat()
			}
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
		for _, a := range agents {
			a.Stop()
		}
		conn.Close()
	})

	body, _ := json.Marshal(map[string]any{"name": "burst-fleet", "policy": "p2c", "members": eps})
	var out struct {
		GroupID protocol.UUID `json:"routing_group_uuid"`
	}
	if err := callJSON("POST", "http://"+api+"/v2/routing_groups", token, body, &out); err != nil {
		t.Fatalf("create routing group: %v", err)
	}
	return out.GroupID
}

// burstLoad is the paced generator's tally; read it after done closes.
type burstLoad struct {
	done                       chan struct{}
	accepted, shed, steadyShed int64
	errs                       int64
	firstErr                   error
}

// offerBurstLoad submits to the group at burstPhases' rates, counted from
// start, until the schedule ends or ctx is cancelled: every 20 ms it posts
// whatever the schedule owes by then, so a slow POST is caught up by the
// next one instead of lowering the offered load.
func offerBurstLoad(ctx context.Context, api, token string, group, fn protocol.UUID, start time.Time) *burstLoad {
	l := &burstLoad{done: make(chan struct{})}
	client := sdk.NewClient(api, token)
	client.MaxRetries = -1 // count sheds; do not retry them away
	payload := []byte(`{"entrypoint":"identity","args":[1]}`)
	go func() {
		defer close(l.done)
		sent := 0
		for {
			offset := time.Since(start)
			due, phase := 0.0, ""
			var at time.Duration
			for _, p := range burstPhases {
				if offset < at+p.dur {
					due += p.rate * (offset - at).Seconds()
					phase = p.name
					break
				}
				due += p.rate * p.dur.Seconds()
				at += p.dur
			}
			if phase == "" || ctx.Err() != nil {
				return
			}
			if n := min(int(due)-sent, 256); n > 0 {
				reqs := make([]webservice.SubmitRequest, n)
				for i := range reqs {
					reqs[i] = webservice.SubmitRequest{EndpointID: group, FunctionID: fn, Payload: payload}
				}
				sent += n
				_, err := client.SubmitBatch(reqs)
				switch {
				case err == nil:
					l.accepted += int64(n)
				case errors.Is(err, sdk.ErrOverloaded):
					l.shed += int64(n)
					if phase == "steady" {
						l.steadyShed += int64(n)
					}
				default:
					if l.errs++; l.firstErr == nil {
						l.firstErr = err
					}
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	return l
}

// sampleBurst reads the backlog, the shed counter and the fleet's service
// rate from the service's own observability surface.
func sampleBurst(api, token string) (burstSample, error) {
	var s burstSample
	base := "http://" + api
	m, err := scrape(base+"/metrics", token)
	if err != nil {
		return s, err
	}
	if f := m.Family("gc_shed_total"); f != nil && len(f.Samples) > 0 {
		s.shedTotal = f.Samples[0].Value
	}
	// One gauge family per task queue; result and command queues are not
	// backlog the fleet owes.
	for name, f := range m.Families {
		if strings.HasPrefix(name, "gc_broker_depth_tasks_") && len(f.Samples) > 0 {
			s.backlog += f.Samples[0].Value
		}
	}
	fed, err := scrape(base+"/metrics/fleet", token)
	if err != nil {
		return s, err
	}
	if f := fed.Family("gc_endpoint_service_rate_tasks_per_second"); f != nil {
		for _, sp := range f.Samples {
			s.serviceRate += sp.Value
		}
	}
	var fleet struct {
		Fleet obs.FleetHealth `json:"fleet"`
	}
	if err := callJSON("GET", base+"/debug/fleet", token, nil, &fleet); err != nil {
		return s, err
	}
	for _, ep := range fleet.Fleet.Endpoints {
		s.backlog += float64(ep.PendingTasks)
		if ep.EgressBacklog != nil {
			s.backlog += float64(*ep.EgressBacklog)
		}
	}
	return s, nil
}

// callJSON sends body (when non-nil) and decodes a 2xx JSON reply into out.
// The token goes both as a bearer header (REST) and as ?token= (debug
// endpoints).
func callJSON(method, u, token string, body []byte, out any) error {
	rc, err := request(method, u, token, body)
	if err != nil {
		return err
	}
	defer rc.Close()
	return json.NewDecoder(rc).Decode(out)
}

func scrape(u, token string) (*obs.Exposition, error) {
	rc, err := request("GET", u, token, nil)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return obs.ParseExposition(rc)
}

func request(method, u, token string, body []byte) (io.ReadCloser, error) {
	req, err := http.NewRequest(method, u+"?token="+url.QueryEscape(token), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s", method, u, resp.Status)
	}
	return resp.Body, nil
}

// percentile is the nearest-rank p-quantile of vals (0 when empty).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	idx := min(max(int(p*float64(len(sorted))+0.5)-1, 0), len(sorted)-1)
	return sorted[idx]
}

func backlogs(samples []burstSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.backlog
	}
	return out
}
