// Package webservice implements the cloud-hosted Globus Compute web service:
// a REST API for function registration, endpoint registration, batched task
// submission, and task status; per-endpoint task and result queues on the
// message broker; a result processor; payload spill to the object store; and
// enforcement of the 10 MB payload limit, allowed-function lists, and
// authentication policies. Multi-user endpoints are driven through their
// command queue (start-user-endpoint requests keyed by configuration hash).
package webservice

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/metrics"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/serialize"
	"globuscompute/internal/statestore"
	"globuscompute/internal/trace"
)

// Queue name builders: the names are protocol's.
func TaskQueue(ep protocol.UUID) string       { return protocol.TaskQueue(ep) }
func ResultQueue(ep protocol.UUID) string     { return protocol.ResultQueue(ep) }
func CommandQueue(ep protocol.UUID) string    { return protocol.CommandQueue(ep) }
func GroupResultQueue(g protocol.UUID) string { return protocol.GroupResultQueue(g) }

// Common errors.
var (
	ErrFunctionNotAllowed = errors.New("webservice: function not in endpoint allowlist")
	ErrNeedsUserConfig    = errors.New("webservice: multi-user endpoint requires a user endpoint configuration")
)

// StartEndpointCommand is the message placed on a multi-user endpoint's
// command queue (Fig. 1 step 2): spawn (or reuse) a user endpoint for the
// given identity and configuration.
type StartEndpointCommand struct {
	ChildEndpointID protocol.UUID   `json:"child_endpoint_id"`
	UserIdentity    auth.Identity   `json:"user_identity"`
	UserConfig      json.RawMessage `json:"user_config"`
	ConfigHash      string          `json:"config_hash"`
}

// Config assembles a service from its substrates.
type Config struct {
	Store   *statestore.Store
	Broker  *broker.Broker
	Objects *objectstore.Store
	Auth    *auth.Service
	// InlineThreshold is the payload size above which payloads spill to
	// the object store (default serialize.DefaultInlineThreshold).
	InlineThreshold int
	// Tracer, when set, records submit and result-processing spans and
	// propagates trace context onto published tasks and results. Nil
	// disables tracing.
	Tracer *trace.Tracer
	// Fleet, when set, overrides the default fleet metrics store (tests and
	// the testbed tune ring sizes and staleness windows through this).
	Fleet *obs.FleetStore
	// SLORules overrides the default SLO rule set (nil = obs.DefaultRules).
	SLORules []obs.Rule
	// DurableMetrics, when the service runs on a durable store (see
	// internal/durable), is that layer's registry; /metrics exposes it under
	// the gc_durable prefix (WAL appends/fsyncs, snapshot age, replay
	// timings). Nil when running in-memory.
	DurableMetrics *metrics.Registry
	// Admission, when set, gates every submission through per-tenant
	// token-bucket rate limiting and in-flight caps (see
	// internal/scheduler.Admission and overload.go). Nil admits everything.
	Admission *scheduler.Admission
	// QueueLimit, when > 0, bounds every endpoint task queue's depth in the
	// broker; batch-priority publishes shed at the 80% watermark and
	// interactive ones at the limit. Zero leaves queues unbounded.
	QueueLimit int
	// BacklogShedThreshold, when > 0, sheds batch submissions targeting an
	// endpoint whose heartbeat-reported egress backlog meets the threshold
	// (interactive submissions tolerate twice it). Zero disables the signal.
	BacklogShedThreshold int
	// HeartbeatInterval is the fleet's expected agent heartbeat cadence
	// (default 1s). It sizes the load-report staleness horizon: placement
	// and the backlog-shed path treat reports older than three intervals as
	// unknown rather than trusting a dead endpoint's last words.
	HeartbeatInterval time.Duration
	// Pprof registers net/http/pprof handlers under /debug/pprof/ on the
	// REST mux, behind the same ?token= authentication as the other debug
	// endpoints. Off by default: profiling exposes process internals and
	// costs CPU while sampling — opt in per process (gc-webservice -pprof).
	Pprof bool

	// log is the service's structured logger and logs the ring buffer GET
	// /debug/logs serves; both default to the process pipeline's. This
	// package's drain test sets them to read the service's warnings alone.
	log  *obs.Logger
	logs *obs.LogBuffer
}

// Service is the web service core, independent of its HTTP front end.
type Service struct {
	cfg Config

	mu sync.Mutex
	// resultConsumers tracks per-endpoint result processor goroutines.
	resultConsumers map[protocol.UUID]*broker.Consumer
	closed          bool

	wg         sync.WaitGroup
	auditTrail *auditLog
	log        *obs.Logger
	Metrics    *metrics.Registry

	// Overload is the overload-protection registry, exported on /metrics
	// under the bare gc prefix (gc_admission_*_total, gc_shed_total).
	Overload *metrics.Registry
	// idemMu stripes submissions by idempotency key (see overload.go).
	idemMu [idemStripes]sync.Mutex

	// Fleet is the per-endpoint metrics time-series store fed by heartbeat
	// snapshots; SLO evaluates burn-rate rules over it. Both back the
	// /metrics/fleet and /debug/fleet endpoints.
	Fleet *obs.FleetStore
	SLO   *obs.SLOEngine

	// Routing is the placement registry (route_picks*, route_reroutes,
	// route_pick_staleness), exported on /metrics under the bare gc prefix
	// like the overload series.
	Routing *metrics.Registry
	// routeMu guards routeGroups, the per-routing-group selector +
	// candidate-snapshot cache (see routing.go).
	routeMu     sync.Mutex
	routeGroups map[protocol.UUID]*groupRoute
}

// New builds the service, filling config defaults.
func New(cfg Config) (*Service, error) {
	if cfg.Store == nil || cfg.Broker == nil || cfg.Objects == nil || cfg.Auth == nil {
		return nil, errors.New("webservice: store, broker, objects, and auth are all required")
	}
	if cfg.InlineThreshold <= 0 {
		cfg.InlineThreshold = serialize.DefaultInlineThreshold
	}
	if cfg.log == nil {
		cfg.log, cfg.logs = obs.Component("webservice"), obs.DefaultBuffer()
	}
	fleet := cfg.Fleet
	if fleet == nil {
		fleet = obs.NewFleetStore(obs.FleetConfig{})
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	s := &Service{
		cfg:             cfg,
		resultConsumers: make(map[protocol.UUID]*broker.Consumer),
		auditTrail:      newAuditLog(0),
		log:             cfg.log,
		Metrics:         metrics.NewRegistry(),
		Overload:        metrics.NewRegistry(),
		Routing:         metrics.NewRegistry(),
		Fleet:           fleet,
		SLO:             obs.NewSLOEngine(fleet, cfg.SLORules),
		routeGroups:     make(map[protocol.UUID]*groupRoute),
	}
	// Alert counts surface on /metrics alongside the service counters.
	s.SLO.SetRegistry(s.Metrics)
	return s, nil
}

// RecordHeartbeat applies one agent heartbeat: endpoint status, the optional
// load report, and the optional piggybacked metrics snapshot. A heartbeat
// without a snapshot still refreshes fleet liveness; an offline heartbeat
// marks the endpoint cleanly stopped so staleness alerting stands down (a
// crashed agent never sends one — that silence is what fires the SLO).
func (s *Service) RecordHeartbeat(id protocol.UUID, online bool, load *statestore.EndpointLoad, snap *metrics.Snapshot) error {
	status := statestore.EndpointOffline
	if online {
		status = statestore.EndpointOnline
	}
	if err := s.cfg.Store.SetEndpointHeartbeat(id, status, load); err != nil {
		return err
	}
	now := time.Now()
	if load != nil {
		// Fold the load report into the fleet store before sampling the ring:
		// utilization gauges for endpoints with no metrics registry, and the
		// received/published deltas that drive the service-rate EWMA.
		s.Fleet.ObserveLoad(string(id), *load, now)
	}
	if snap != nil && snap.Len() > 0 {
		s.Fleet.Ingest(string(id), *snap, now)
	} else {
		s.Fleet.Touch(string(id), now)
	}
	if !online {
		s.Fleet.MarkStopped(string(id))
	}
	return nil
}

// StartSLOEvaluator runs the background tick+evaluate loop; the returned stop
// function blocks until the loop exits. The /debug/fleet handler also
// evaluates on demand, so the loop mainly keeps alert state moving while
// nobody is polling.
func (s *Service) StartSLOEvaluator(interval time.Duration) (stop func()) {
	return s.SLO.Start(interval)
}

// Close stops result processors.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	consumers := make([]*broker.Consumer, 0, len(s.resultConsumers))
	for _, c := range s.resultConsumers {
		consumers = append(consumers, c)
	}
	s.mu.Unlock()
	for _, c := range consumers {
		c.Close()
	}
	s.wg.Wait()
}

// --- functions ---

// RegisterFunction stores an immutable function and returns its UUID.
func (s *Service) RegisterFunction(owner string, kind protocol.FunctionKind, definition []byte) (protocol.UUID, error) {
	if len(definition) == 0 {
		return "", errors.New("webservice: empty function definition")
	}
	switch kind {
	case protocol.KindPython, protocol.KindShell, protocol.KindMPI:
	default:
		return "", fmt.Errorf("webservice: unknown function kind %q", kind)
	}
	id := protocol.NewUUID()
	err := s.cfg.Store.PutFunction(statestore.FunctionRecord{
		ID: id, Owner: owner, Kind: kind, Definition: definition,
	})
	s.audit(owner, "register_function", id, err, string(kind))
	if err != nil {
		return "", err
	}
	s.Metrics.Counter("functions_registered").Inc()
	return id, nil
}

// GetFunction fetches a registered function.
func (s *Service) GetFunction(id protocol.UUID) (statestore.FunctionRecord, error) {
	return s.cfg.Store.GetFunction(id)
}

// --- endpoints ---

// RegisterEndpointRequest registers or re-registers an endpoint.
type RegisterEndpointRequest struct {
	ID               protocol.UUID     `json:"endpoint_id,omitempty"` // empty = new
	Name             string            `json:"name"`
	Owner            string            `json:"owner"`
	MultiUser        bool              `json:"multi_user,omitempty"`
	Parent           protocol.UUID     `json:"parent,omitempty"`
	Metadata         map[string]string `json:"metadata,omitempty"`
	AllowedFunctions []protocol.UUID   `json:"allowed_functions,omitempty"`
	AuthPolicy       string            `json:"auth_policy,omitempty"`
}

// RegisterEndpoint creates the endpoint record and its queues, and starts
// the result processor for it. It returns the endpoint ID. An auth policy
// the auth service does not know is refused: every submit to the endpoint
// would fail on it.
func (s *Service) RegisterEndpoint(req RegisterEndpointRequest) (protocol.UUID, error) {
	id := req.ID
	if id == "" {
		id = protocol.NewUUID()
	} else if !id.Valid() {
		return "", fmt.Errorf("webservice: invalid endpoint ID %q", id)
	}
	if err := s.cfg.Auth.EvaluatePolicy(req.AuthPolicy, auth.Token{}); errors.Is(err, auth.ErrUnknownPolicy) {
		return "", err
	}
	rec := statestore.EndpointRecord{
		ID: id, Name: req.Name, Owner: req.Owner,
		MultiUser: req.MultiUser, Parent: req.Parent,
		Status: statestore.EndpointOffline, Metadata: req.Metadata,
		AllowedFunctions: req.AllowedFunctions, AuthPolicy: req.AuthPolicy,
	}
	if err := s.cfg.Store.UpsertEndpoint(rec); err != nil {
		return "", err
	}
	if err := s.declareTaskQueue(id); err != nil {
		return "", err
	}
	if err := s.cfg.Broker.Declare(ResultQueue(id)); err != nil {
		return "", err
	}
	if req.MultiUser {
		if err := s.cfg.Broker.Declare(CommandQueue(id)); err != nil {
			return "", err
		}
	}
	if err := s.startResultProcessor(id); err != nil {
		return "", err
	}
	detail := "single-user"
	if req.MultiUser {
		detail = "multi-user"
	}
	s.audit(req.Owner, "register_endpoint", id, nil, detail)
	s.Metrics.Counter("endpoints_registered").Inc()
	return id, nil
}

// ResumeEndpoints re-attaches the service to every endpoint already present
// in the statestore: queues are re-declared and result processors restarted.
// A service restarted on a durable store calls this after recovery so
// buffered results drain immediately instead of waiting for each agent to
// re-register.
func (s *Service) ResumeEndpoints() error {
	resumed := 0
	for _, ep := range s.cfg.Store.ListEndpoints(statestore.EndpointFilter{}) {
		if err := s.declareTaskQueue(ep.ID); err != nil {
			return err
		}
		if err := s.cfg.Broker.Declare(ResultQueue(ep.ID)); err != nil {
			return err
		}
		if ep.MultiUser {
			if err := s.cfg.Broker.Declare(CommandQueue(ep.ID)); err != nil {
				return err
			}
		}
		if err := s.startResultProcessor(ep.ID); err != nil {
			return err
		}
		resumed++
	}
	if resumed > 0 {
		s.log.Info("resumed recovered endpoints", "endpoints", resumed)
	}
	return nil
}

// declareTaskQueue declares an endpoint's task queue and applies the
// configured depth bound so the broker sheds publishes once the endpoint
// falls behind.
func (s *Service) declareTaskQueue(id protocol.UUID) error {
	q := TaskQueue(id)
	if err := s.cfg.Broker.Declare(q); err != nil {
		return err
	}
	if s.cfg.QueueLimit > 0 {
		if err := s.cfg.Broker.SetQueueLimit(q, s.cfg.QueueLimit); err != nil {
			return err
		}
	}
	return nil
}

// SetEndpointStatus records an agent heartbeat.
func (s *Service) SetEndpointStatus(id protocol.UUID, online bool) error {
	status := statestore.EndpointOffline
	if online {
		status = statestore.EndpointOnline
	}
	return s.cfg.Store.SetEndpointStatus(id, status)
}

// GetEndpoint returns the endpoint record.
func (s *Service) GetEndpoint(id protocol.UUID) (statestore.EndpointRecord, error) {
	return s.cfg.Store.GetEndpoint(id)
}

// EndpointSummary is the discovery view of an endpoint (no queue or
// configuration details).
type EndpointSummary struct {
	ID        protocol.UUID             `json:"endpoint_id"`
	Name      string                    `json:"name"`
	Owner     string                    `json:"owner"`
	MultiUser bool                      `json:"multi_user"`
	Status    statestore.EndpointStatus `json:"status"`
	Metadata  map[string]string         `json:"metadata,omitempty"`
}

// SearchEndpoints finds endpoints whose name or metadata contains query
// (case-insensitive; empty matches all). Spawned user endpoints are
// excluded — users discover MEPs and single-user endpoints, not the
// per-user children.
func (s *Service) SearchEndpoints(query string) []EndpointSummary {
	q := strings.ToLower(query)
	var out []EndpointSummary
	for _, ep := range s.cfg.Store.ListEndpoints(statestore.EndpointFilter{}) {
		if ep.Parent != "" {
			continue
		}
		if q != "" && !endpointMatches(ep, q) {
			continue
		}
		out = append(out, EndpointSummary{
			ID: ep.ID, Name: ep.Name, Owner: ep.Owner,
			MultiUser: ep.MultiUser, Status: ep.Status, Metadata: ep.Metadata,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func endpointMatches(ep statestore.EndpointRecord, q string) bool {
	if strings.Contains(strings.ToLower(ep.Name), q) {
		return true
	}
	for k, v := range ep.Metadata {
		if strings.Contains(strings.ToLower(k), q) || strings.Contains(strings.ToLower(v), q) {
			return true
		}
	}
	return false
}

// startResultProcessor consumes the endpoint's result queue, records
// results, and republishes them onto group streams.
func (s *Service) startResultProcessor(id protocol.UUID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startResultProcessorLocked(id)
}

// startResultProcessorLocked is startResultProcessor for callers already
// holding s.mu.
func (s *Service) startResultProcessorLocked(id protocol.UUID) error {
	if s.closed {
		return errors.New("webservice: closed")
	}
	if _, dup := s.resultConsumers[id]; dup {
		return nil // re-registration; processor already attached
	}
	c, err := s.cfg.Broker.Consume(ResultQueue(id), 64)
	if err != nil {
		return err
	}
	s.resultConsumers[id] = c
	s.wg.Add(1)
	go s.runResultProcessor(c)
	return nil
}

// resultBatchMax bounds how many buffered results one statestore/ack round
// trip covers (matches the consumer prefetch).
const resultBatchMax = 64

// runResultProcessor drains a result consumer. The first receive blocks;
// whatever else is already buffered (up to resultBatchMax) is folded into
// the same batch, so one statestore write and one ack round trip cover a
// burst while a lone result is processed immediately. The batch's slices
// live as long as the loop.
func (s *Service) runResultProcessor(c *broker.Consumer) {
	defer s.wg.Done()
	var sc resultScratch
	msgs := c.Messages()
	for m := range msgs {
		batch := append(sc.msgs, m)
	drain:
		for len(batch) < resultBatchMax {
			select {
			case m2, ok := <-msgs:
				if !ok {
					break drain
				}
				batch = append(batch, m2)
			default:
				break drain
			}
		}
		s.processResultBatch(c, batch, &sc)
		sc.msgs = clearPrefix(batch)
	}
}

// resultScratch is one result processor's per-batch scratch. It outlives
// the batch so a batch allocates none of its slices; processResultBatch
// clears the prefix it used, so no body, output or span stays referenced
// between batches.
type resultScratch struct {
	msgs          []broker.Message
	results       []protocol.Result
	bodies        [][]byte
	spans         []trace.ActiveSpan
	tags, settled []uint64
}

// clearPrefix zeroes the used elements of a scratch slice (not its whole
// capacity: a lone result must not pay for clearing 64 slots) and returns
// it emptied for the next batch.
func clearPrefix[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// processResultBatch records a batch of result messages: parse and spill
// each, record them all through recordTerminal, and acknowledge the batch
// once. A result message is acked only when its fate is settled — recorded,
// or rejected for good (malformed, or refused by the task state machine). One
// the journal failed to record stays unacknowledged, so the broker redelivers
// it when this consumer closes or the process restarts; it is not nacked,
// which would spin against a dead log. sc holds the batch's parallel slices.
func (s *Service) processResultBatch(c *broker.Consumer, batch []broker.Message, sc *resultScratch) {
	// Parallel slices over the batch's well-formed results.
	results, bodies, spans := sc.results, sc.bodies, sc.spans
	tags, settled := sc.tags, sc.settled
	for _, m := range batch {
		spans = append(spans, trace.ActiveSpan{})
		res, body, err := s.prepareResult(m.Body, m.Trace, &spans[len(spans)-1])
		if err != nil {
			spans = spans[:len(spans)-1]
			s.log.WithTask(string(res.TaskID)).WithTrace(m.Trace).
				Warn("dropping unprocessable result", "error", err)
			settled = append(settled, m.Tag)
			continue
		}
		results, bodies = append(results, res), append(bodies, body)
		tags = append(tags, m.Tag)
	}
	errs := s.recordTerminal(results, bodies)
	for i, res := range results {
		if err := errs[i]; err != nil {
			s.log.WithTask(string(res.TaskID)).WithTrace(res.Trace).
				Warn("result not recorded", "error", err)
			spans[i].EndStatus("error")
			if errors.Is(err, statestore.ErrIllegalTransition) || errors.Is(err, statestore.ErrNotFound) {
				settled = append(settled, tags[i])
			}
			continue
		}
		settled = append(settled, tags[i])
		s.Metrics.Counter("results_processed").Inc()
		if res.DeadLettered {
			// The engine gave up on this task after its attempt budget;
			// surface the count so operators can spot poison tasks.
			s.Metrics.Counter("deadlettered_tasks").Inc()
			s.log.WithTask(string(res.TaskID)).WithTrace(res.Trace).
				WithEndpoint(string(res.EndpointID)).
				Warn("task dead-lettered by engine", "error", res.Error)
		}
	}
	trace.EndAll(spans, "") // the recorded ones; the rest ended with "error"
	_ = c.Ack(settled...)
	sc.results, sc.bodies, sc.spans = clearPrefix(results), clearPrefix(bodies), clearPrefix(spans)
	sc.tags, sc.settled = tags[:0], settled[:0]
}

// recordTerminal is the one path a task takes into a terminal state, whether
// an endpoint's result, a user's cancellation or an expired lease put it
// there. bodies is parallel to results, each one's body: the batch completes
// in one sharded statestore round trip (one journal commit), and every
// result the task state machine accepted settles its task's admission
// accounting, feeds the originating endpoint's fleet series and goes out on
// its submitter's group stream (one publish per group). The returned slice
// is parallel to results: errs[i] is nil when results[i] was recorded.
func (s *Service) recordTerminal(results []protocol.Result, bodies [][]byte) []error {
	if len(results) == 0 {
		return nil // nothing to journal
	}
	done, errs := s.cfg.Store.CompleteEncoded(results, bodies)
	gs := groupStreamPool.Get().(*groupStream)
	for i, res := range results {
		if errs[i] != nil {
			continue
		}
		c := done[i]
		s.observeResult(res, c.Created)
		s.releaseTerminal(c)
		if c.GroupID != "" {
			gs.items = append(gs.items, groupResult{group: c.GroupID, body: bodies[i], tc: res.Trace})
		}
	}
	s.streamGroupResults(gs)
	gs.items = clearPrefix(gs.items)
	groupStreamPool.Put(gs)
	return errs
}

// groupResult is one recorded result bound for its submitter's group stream.
type groupResult struct {
	group protocol.UUID
	body  []byte // the result's body
	tc    trace.Context
}

// groupStream is the scratch of one recordTerminal call: the recorded
// results bound for group streams, and one group's publish at a time.
// Result processors record concurrently, so the scratch comes from a pool.
type groupStream struct {
	items  []groupResult
	bodies [][]byte
	traces []trace.Context
}

var groupStreamPool = sync.Pool{New: func() any { return new(groupStream) }}

// streamGroupResults publishes gs.items onto the submitting executors'
// group queues so their futures resolve: one broker publish — on a durable
// broker, one journal commit — per distinct group, in the order given. A
// group whose queue is gone (its executor closed) has nobody left to tell.
func (s *Service) streamGroupResults(gs *groupStream) {
	items := gs.items
	order, byGroup := groupIndices(len(items), func(i int) protocol.UUID { return items[i].group })
	for gi, g := range order {
		idxs := byGroup[gi]
		bodies, traces := gs.bodies[:0], gs.traces[:0]
		for _, i := range idxs {
			bodies, traces = append(bodies, items[i].body), append(traces, items[i].tc)
		}
		err := s.cfg.Broker.PublishBatch(GroupResultQueue(g), bodies, traces)
		if err != nil && !errors.Is(err, broker.ErrQueueNotFound) {
			s.log.Warn("group results not streamed", "group", string(g), "results", len(idxs), "error", err)
		}
		gs.bodies, gs.traces = clearPrefix(bodies), traces[:0]
	}
}

// groupIndices buckets the indices 0..n-1 by key: keys in first-seen order,
// and beside each its indices in order. A batch costs four allocations
// however large it is (a map as well when it has more than one key): the
// buckets share one backing slice, filled by a counting pass.
func groupIndices[K comparable](n int, key func(int) K) ([]K, [][]int) {
	var order []K
	var index map[K]int // built once a second key shows up
	group := make([]int, n)
	for i := range group {
		k, g := key(i), 0
		switch {
		case i > 0 && order[group[i-1]] == k:
			g = group[i-1]
		case index != nil:
			var ok bool
			if g, ok = index[k]; !ok {
				g = len(order)
				order = append(order, k)
				index[k] = g
			}
		case len(order) == 0:
			order = append(order, k)
		default: // the second key
			g = 1
			order = append(order, k)
			index = map[K]int{order[0]: 0, k: 1}
		}
		group[i] = g
	}
	// Count each bucket in its length, then cut the backing slice to fit.
	buckets := make([][]int, len(order))
	backing := make([]int, n)
	for _, g := range group {
		buckets[g] = backing[:len(buckets[g])+1]
	}
	at := 0
	for g, b := range buckets {
		buckets[g] = backing[at : at : at+len(b)]
		at += len(b)
	}
	for i, g := range group {
		buckets[g] = append(buckets[g], i)
	}
	return order, buckets
}

// observeResult records one terminal result in the originating endpoint's
// fleet-local registry: outcome counters plus the submit→record round trip.
// These service-side series (merged under ws_) survive agent crashes, so the
// failure-rate and latency SLOs keep evaluating exactly when the agent-side
// view goes dark.
func (s *Service) observeResult(res protocol.Result, created time.Time) {
	if res.EndpointID == "" {
		return
	}
	loc := s.Fleet.Local(string(res.EndpointID))
	if loc == nil {
		return
	}
	loc.Counter("results").Inc()
	if res.State == protocol.StateFailed {
		loc.Counter("results_failed").Inc()
	}
	if !created.IsZero() {
		loc.Histogram("task_roundtrip").Observe(time.Since(created))
	}
}

// prepareResult parses and spills one result message, returning the result
// ready for recording and its body — the bytes that go to the journal and
// onto the group stream — and starting its processing span in sp: left open
// for the caller to end, or ended when an error is returned. tc is the trace
// context delivered with the message (the broker transit span); the result
// body's own context is the fallback for untraced transports.
// The body is re-encoded only when spilling or a JSON body changed it;
// re-pointing its packed trace context at the processing span patches a
// copy (the delivered body may be delivered again, so it is not written).
func (s *Service) prepareResult(body []byte, tc trace.Context, sp *trace.ActiveSpan) (protocol.Result, []byte, error) {
	res, traceAt, err := protocol.DecodeResultAt(body)
	if err != nil {
		return res, nil, fmt.Errorf("bad result message: %w", err)
	}
	if !tc.Valid() {
		tc = res.Trace
	}
	*sp = s.cfg.Tracer.StartSpan(tc, "result.process")
	sp.SetAttr("task", string(res.TaskID))
	if !res.State.Terminal() {
		sp.SetAttr("error", "non-terminal state")
		sp.End()
		return res, nil, fmt.Errorf("non-terminal result state %q for task %s", res.State, res.TaskID)
	}
	changed := false
	// Spill oversized outputs to the object store before recording.
	if len(res.Output) > s.cfg.InlineThreshold && res.OutputRef == "" {
		key, err := s.cfg.Objects.PutContent(res.Output)
		if err != nil {
			sp.EndStatus("error")
			return res, nil, err
		}
		s.Metrics.Counter("spill_results").Inc()
		s.Metrics.Counter("spill_result_bytes").Add(int64(len(res.Output)))
		res.OutputRef = key
		res.Output = nil
		changed = true
	}
	// Re-point the result's context at the processing span so the SDK's
	// resolution span chains off it.
	if next := sp.Context(); next.Valid() {
		res.Trace = next
		if !changed {
			if patched, ok := protocol.RetraceResult(body, traceAt, next); ok {
				return res, patched, nil
			}
		}
		changed = true
	}
	if changed || body[0] == '{' {
		body = protocol.EncodeResult(&res)
	}
	return res, body, nil
}

// --- submission ---

// SubmitRequest is one task in a batch submission.
type SubmitRequest struct {
	EndpointID protocol.UUID `json:"endpoint_id"`
	FunctionID protocol.UUID `json:"function_id"`
	// Payload carries serialized arguments (python) or a rendered
	// ShellSpec (shell/MPI). The binary submit body carries it in its own
	// section after the header (see EncodeSubmitBody).
	Payload   []byte                `json:"payload,omitempty"`
	Resources protocol.ResourceSpec `json:"resources,omitempty"`
	// UserEndpointConfig routes submissions to multi-user endpoints: the
	// web service hashes it to locate or spawn the user endpoint.
	UserEndpointConfig json.RawMessage `json:"user_endpoint_config,omitempty"`
	GroupID            protocol.UUID   `json:"group_id,omitempty"`
	// Trace joins the submission to a trace begun by the client (the SDK's
	// per-task root span). Absent means the service starts a new trace if
	// tracing is enabled.
	Trace trace.Context `json:"trace,omitzero"`
}

// SubmitOptions modifies a batch submission.
type SubmitOptions struct {
	// IdempotencyKey, when non-empty, makes the submission idempotent per
	// authenticated identity: a retry carrying the same key returns the task
	// IDs minted by the first attempt instead of enqueuing duplicates. The
	// mapping is journaled through the statestore WAL, so it survives
	// restarts of a durable deployment.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Interactive marks the batch latency-sensitive: it dispatches ahead of
	// batch-priority traffic and is shed only at the hard queue limit and at
	// twice the backlog threshold (batch traffic sheds at the watermarks).
	Interactive bool `json:"interactive,omitempty"`
}

// Submit validates and enqueues a batch of tasks under one authenticated
// identity, returning a task ID per request in order. The whole batch is
// validated before any task is enqueued.
func (s *Service) Submit(tok auth.Token, reqs []SubmitRequest) ([]protocol.UUID, error) {
	return s.SubmitBatch(tok, reqs, SubmitOptions{})
}

// SubmitBatch is Submit with overload-protection options. The admission
// order is: idempotency replay (free — no tokens charged), per-tenant
// admission, then per-target backlog checks inside validation; a rejection
// at any stage returns an OverloadError carrying Retry-After.
func (s *Service) SubmitBatch(tok auth.Token, reqs []SubmitRequest, opts SubmitOptions) ([]protocol.UUID, error) {
	if len(reqs) == 0 {
		return nil, errors.New("webservice: empty batch")
	}
	user := tok.Identity.Username
	if opts.IdempotencyKey != "" {
		// Serialize same-key submissions so two racing retries cannot both
		// miss the lookup and double-enqueue.
		unlock := s.lockIdem(user, opts.IdempotencyKey)
		defer unlock()
		if ids, ok := s.cfg.Store.GetIdempotency(user, opts.IdempotencyKey); ok {
			s.Overload.Counter("idempotent_replays").Inc()
			s.audit(user, "submit_replay", "", nil, opts.IdempotencyKey)
			return ids, nil
		}
	}
	if err := s.admit(user, len(reqs)); err != nil {
		return nil, err
	}
	ids, handedOff, err := s.submitAdmitted(tok, reqs, opts)
	if err != nil {
		// Tasks already handed to the broker settle their slots at their
		// terminal transition; only the ones that never made it are returned
		// here.
		s.release(user, len(reqs)-handedOff)
		return nil, err
	}
	if opts.IdempotencyKey != "" {
		if perr := s.cfg.Store.PutIdempotency(user, opts.IdempotencyKey, ids); perr != nil {
			s.log.Warn("idempotency record not stored", "key", opts.IdempotencyKey, "error", perr)
		}
	}
	return ids, nil
}

// submitAdmitted is the post-admission submit path. It returns the minted
// task IDs and, on error, how many tasks were already published (their
// admission slots settle at their terminal state, not in the error path).
func (s *Service) submitAdmitted(tok auth.Token, reqs []SubmitRequest, opts SubmitOptions) ([]protocol.UUID, int, error) {
	arrived := time.Now()
	sc := submitScratchPool.Get().(*submitScratch)
	defer sc.release()
	// A batch almost always names one function and one endpoint: each record
	// is looked up once per run of equal IDs, and every check that follows
	// still runs per task.
	var (
		fn             statestore.FunctionRecord
		fnErr          error
		direct         statestore.EndpointRecord
		directErr      error
		lastFn, lastEp protocol.UUID
	)
	for i, req := range reqs {
		if i == 0 || req.FunctionID != lastFn {
			lastFn = req.FunctionID
			fn, fnErr = s.cfg.Store.GetFunction(req.FunctionID)
		}
		if fnErr != nil {
			return nil, 0, fmt.Errorf("task %d: %w", i, fnErr)
		}
		if i == 0 || req.EndpointID != lastEp {
			lastEp = req.EndpointID
			direct, directErr = s.cfg.Store.GetEndpoint(req.EndpointID)
		}
		ep, err := direct, directErr
		// A routing group's UUID stands in for an endpoint: each task of the
		// batch is placed on a member by the group's policy (so one batch
		// fans out), with backlog sheds already applied per pick.
		var routingGroup protocol.UUID
		rerouted := 0
		if err != nil {
			if gep, grr, gerr := s.routePick(req.EndpointID, opts.Interactive); !errors.Is(gerr, statestore.ErrNotFound) {
				ep, rerouted, err = gep, grr, gerr
				routingGroup = req.EndpointID
			}
		}
		if err != nil {
			return nil, 0, fmt.Errorf("task %d: %w", i, err)
		}
		if err := s.cfg.Auth.EvaluatePolicy(ep.AuthPolicy, tok); err != nil {
			s.audit(tok.Identity.Username, "submit", ep.ID, err, "auth policy denied")
			return nil, 0, fmt.Errorf("task %d: %w", i, err)
		}
		if len(ep.AllowedFunctions) > 0 && !containsUUID(ep.AllowedFunctions, req.FunctionID) {
			s.audit(tok.Identity.Username, "submit", ep.ID, ErrFunctionNotAllowed, string(req.FunctionID))
			return nil, 0, fmt.Errorf("task %d: %w: %s", i, ErrFunctionNotAllowed, req.FunctionID)
		}
		if len(req.Payload) > serialize.MaxPayload {
			return nil, 0, fmt.Errorf("task %d: %w", i, serialize.ErrPayloadTooLarge)
		}

		target := ep.ID
		if ep.MultiUser {
			child, err := s.resolveUserEndpoint(tok, ep, req.UserEndpointConfig)
			if err != nil {
				return nil, 0, fmt.Errorf("task %d: %w", i, err)
			}
			target = child
		}
		s.observeSubmitAttempt(target, 1)
		if routingGroup == "" {
			// Group picks already ran the backlog check (with reroutes)
			// inside routePick.
			if err := s.checkBacklog(target, opts.Interactive); err != nil {
				return nil, 0, fmt.Errorf("task %d: %w", i, err)
			}
		}

		task := protocol.Task{
			ID:           protocol.NewUUID(),
			Trace:        req.Trace, // the client's context rides on even untraced
			FunctionID:   req.FunctionID,
			EndpointID:   target,
			Kind:         fn.Kind,
			Payload:      req.Payload,
			Resources:    req.Resources,
			UserIdentity: tok.Identity.Username,
			GroupID:      req.GroupID,
			RoutingGroup: routingGroup,
			Rerouted:     rerouted,
			Submitted:    time.Now(),
		}
		if len(task.Payload) > s.cfg.InlineThreshold {
			key, err := s.cfg.Objects.PutContent(task.Payload)
			if err != nil {
				return nil, 0, fmt.Errorf("task %d: %w", i, err)
			}
			s.Metrics.Counter("spill_payloads").Inc()
			s.Metrics.Counter("spill_payload_bytes").Add(int64(len(task.Payload)))
			task.PayloadRef = key
			task.Payload = nil
		}
		sc.tasks = append(sc.tasks, task)
	}

	// Stamp spans and encode bodies. The submit span covers validation
	// through enqueue; with a batch, each task's span shares the batch
	// arrival time.
	tasks := sc.tasks
	ids := make([]protocol.UUID, len(tasks))
	var spans []trace.ActiveSpan // a few hundred bytes a task: only when tracing
	if s.cfg.Tracer != nil {
		sc.spans = append(sc.spans, make([]trace.ActiveSpan, len(tasks))...)
		spans = sc.spans
	}
	fail := func(err error) ([]protocol.UUID, int, error) {
		trace.EndAll(spans, "error")
		return nil, 0, err
	}
	for i := range tasks {
		t := &tasks[i]
		if spans != nil {
			sp := &spans[i]
			*sp = s.cfg.Tracer.StartSpanAt(t.Trace, "submit", arrived)
			sp.SetAttr("endpoint", string(t.EndpointID))
			t.Trace = sp.Context()
		}
		sc.bodies, ids[i] = append(sc.bodies, protocol.EncodeTask(t)), t.ID
	}
	bodies := sc.bodies
	// One journaled statestore step admits the whole batch straight to
	// Delivered, then one broker publish per distinct target queue: two
	// commits per batch. Store first, so a fast agent's result can never
	// reach a store that does not know its task.
	if err := s.cfg.Store.AdmitTasks(tasks, bodies); err != nil {
		return fail(err)
	}
	targets, byTarget := groupIndices(len(tasks), func(i int) protocol.UUID { return tasks[i].EndpointID })
	publish := s.cfg.Broker.PublishBatch
	if opts.Interactive {
		publish = s.cfg.Broker.PublishBatchInteractive
	}
	for ti, target := range targets {
		idxs := byTarget[ti]
		qBodies, qTraces := sc.qBodies[:0], sc.qTraces[:0]
		for _, i := range idxs {
			qBodies, qTraces = append(qBodies, bodies[i]), append(qTraces, tasks[i].Trace)
		}
		err := publish(TaskQueue(target), qBodies, qTraces)
		sc.qBodies, sc.qTraces = clearPrefix(qBodies), qTraces[:0]
		if err != nil {
			// The broker did not take this queue's batch (shed at the depth
			// limit, or failing). Tasks published to earlier queues proceed;
			// the rest never reach an endpoint, so fail them now — every
			// admitted task still lands on exactly one terminal state.
			published := 0
			for _, done := range byTarget[:ti] {
				published += len(done)
			}
			var lostIDs []protocol.UUID
			for _, lost := range byTarget[ti:] {
				for _, i := range lost {
					lostIDs = append(lostIDs, ids[i])
				}
			}
			_ = s.cfg.Store.TransitionTasks(lostIDs, protocol.StateFailed)
			trace.EndAll(spans, "error")
			if errors.Is(err, broker.ErrQueueFull) {
				err = s.queueFullError(target, err)
			}
			return nil, published, err
		}
	}
	trace.EndAll(spans, "")
	s.Metrics.Counter("tasks_submitted").Add(int64(len(ids)))
	s.audit(tok.Identity.Username, "submit", reqs[0].EndpointID, nil,
		fmt.Sprintf("%d tasks", len(ids)))
	return ids, len(ids), nil
}

// submitScratch is one submit call's per-batch slices. Submits run
// concurrently, so the scratch comes from a pool; release clears the prefix
// a batch used, so a pooled scratch holds no payload or body.
type submitScratch struct {
	tasks   []protocol.Task
	bodies  [][]byte
	spans   []trace.ActiveSpan
	qBodies [][]byte
	qTraces []trace.Context
}

var submitScratchPool = sync.Pool{New: func() any { return new(submitScratch) }}

func (sc *submitScratch) release() {
	sc.tasks, sc.bodies, sc.spans = clearPrefix(sc.tasks), clearPrefix(sc.bodies), clearPrefix(sc.spans)
	submitScratchPool.Put(sc)
}

// resolveUserEndpoint maps (MEP, identity, config hash) to a user endpoint,
// creating the child record and issuing a start command on first use —
// the Fig. 1 flow.
func (s *Service) resolveUserEndpoint(tok auth.Token, mep statestore.EndpointRecord, userConfig json.RawMessage) (protocol.UUID, error) {
	if len(userConfig) == 0 {
		return "", ErrNeedsUserConfig
	}
	hash, err := HashConfig(userConfig)
	if err != nil {
		return "", err
	}
	// Reuse the existing child with the same owner and config hash.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, child := range s.cfg.Store.ListEndpoints(statestore.EndpointFilter{Parent: mep.ID, Owner: tok.Identity.Username}) {
		if child.Metadata["config_hash"] == hash {
			s.Metrics.Counter("uep_reused").Inc()
			return child.ID, nil
		}
	}
	childID := protocol.NewUUID()
	rec := statestore.EndpointRecord{
		ID: childID, Name: mep.Name + "/uep", Owner: tok.Identity.Username,
		Parent: mep.ID, Status: statestore.EndpointOffline,
		Metadata: map[string]string{"config_hash": hash},
		// Children inherit the MEP's function allowlist.
		AllowedFunctions: mep.AllowedFunctions,
	}
	if err := s.cfg.Store.UpsertEndpoint(rec); err != nil {
		return "", err
	}
	if err := s.declareTaskQueue(childID); err != nil {
		return "", err
	}
	if err := s.cfg.Broker.Declare(ResultQueue(childID)); err != nil {
		return "", err
	}
	if err := s.startResultProcessorLocked(childID); err != nil {
		return "", err
	}
	cmd := StartEndpointCommand{
		ChildEndpointID: childID,
		UserIdentity:    tok.Identity,
		UserConfig:      userConfig,
		ConfigHash:      hash,
	}
	body, err := json.Marshal(cmd)
	if err != nil {
		return "", err
	}
	if err := s.cfg.Broker.Publish(CommandQueue(mep.ID), body); err != nil {
		return "", err
	}
	s.audit(tok.Identity.Username, "start_user_endpoint", childID, nil, "mep="+string(mep.ID)+" hash="+hash)
	s.Metrics.Counter("uep_spawn_requested").Inc()
	return childID, nil
}

// HashConfig canonicalizes a JSON user configuration (sorted keys) and
// hashes it, so semantically identical configs reuse one user endpoint.
func HashConfig(raw json.RawMessage) (string, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", fmt.Errorf("webservice: invalid user endpoint config: %w", err)
	}
	canon := canonicalize(v)
	b, err := json.Marshal(canon)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// canonicalize rewrites maps into sorted key/value pair lists so hashing is
// order-independent.
func canonicalize(v any) any {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pairs := make([][2]any, 0, len(keys))
		for _, k := range keys {
			pairs = append(pairs, [2]any{k, canonicalize(x[k])})
		}
		return pairs
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = canonicalize(e)
		}
		return out
	default:
		return v
	}
}

// --- task status ---

// TaskStatus is the polling view of a task.
type TaskStatus struct {
	TaskID protocol.UUID      `json:"task_id"`
	State  protocol.TaskState `json:"state"`
	Result []byte             `json:"result,omitempty"`
	// ResultRef points into the object store for large outputs.
	ResultRef string `json:"result_ref,omitempty"`
	Error     string `json:"error,omitempty"`
}

// GetTask returns the status (and result if terminal) of a task.
func (s *Service) GetTask(id protocol.UUID) (TaskStatus, error) {
	rec, err := s.cfg.Store.GetTask(id)
	if err != nil {
		return TaskStatus{}, err
	}
	return TaskStatus{
		TaskID: rec.Task.ID, State: rec.State,
		Result: rec.Result, ResultRef: rec.ResultRef, Error: rec.Error,
	}, nil
}

// GetTasks returns the status of many tasks at once (the batch_status API),
// one shared read-lock round trip per statestore shard rather than one per
// task. Unknown IDs are reported with an empty state rather than failing
// the whole batch.
func (s *Service) GetTasks(ids []protocol.UUID) []TaskStatus {
	recs := s.cfg.Store.GetTaskRecords(ids)
	out := make([]TaskStatus, len(ids))
	for i, id := range ids {
		rec, ok := recs[id]
		if !ok {
			out[i] = TaskStatus{TaskID: id, Error: fmt.Sprintf("%v: task %s", statestore.ErrNotFound, id)}
			continue
		}
		out[i] = TaskStatus{
			TaskID: rec.Task.ID, State: rec.State,
			Result: rec.Result, ResultRef: rec.ResultRef, Error: rec.Error,
		}
	}
	return out
}

// CancelTask cancels a task that has not reached a terminal state. Tasks
// already executing may still produce a result; the first terminal
// transition wins (the state machine guarantees exactly one).
func (s *Service) CancelTask(tok auth.Token, id protocol.UUID) error {
	rec, err := s.cfg.Store.GetTask(id)
	if err != nil {
		return err
	}
	if rec.Task.UserIdentity != tok.Identity.Username {
		return fmt.Errorf("%w: task %s belongs to %s", auth.ErrPolicyDenied, id, rec.Task.UserIdentity)
	}
	// The cancellation is a result like any other: it streams to the
	// executor's group queue so futures resolve promptly.
	res := protocol.Result{TaskID: id, State: protocol.StateCancelled, Error: "cancelled by user"}
	err = s.recordTerminal([]protocol.Result{res}, [][]byte{protocol.EncodeResult(&res)})[0]
	s.audit(tok.Identity.Username, "cancel_task", id, err, "")
	if err != nil {
		return err
	}
	s.Metrics.Counter("tasks_cancelled").Inc()
	return nil
}

// WatchdogConfig configures the combined heartbeat and task-lease watchdog.
type WatchdogConfig struct {
	// HeartbeatTimeout marks an endpoint offline when its heartbeats stop
	// arriving for longer than this.
	HeartbeatTimeout time.Duration
	// Interval is the sweep period.
	Interval time.Duration
	// TaskLease, when > 0, bounds how long a non-terminal task may sit on an
	// endpoint that has been marked offline: tasks whose last state change is
	// older than the lease are failed so client futures resolve instead of
	// waiting forever on a dead endpoint. Zero keeps the pre-lease behavior
	// (tasks buffer until the endpoint returns). If the endpoint does come
	// back and completes a lease-expired task, the late result is rejected by
	// the task state machine — exactly one terminal state wins.
	TaskLease time.Duration
}

// StartWatchdog starts the heartbeat/lease watchdog and returns a stop
// function.
func (s *Service) StartWatchdog(cfg WatchdogConfig) (stop func()) {
	done := make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			cutoff := time.Now().Add(-cfg.HeartbeatTimeout)
			for _, ep := range s.cfg.Store.ListEndpoints(statestore.EndpointFilter{Status: statestore.EndpointOnline}) {
				if ep.LastHeartbeat.Before(cutoff) {
					_ = s.cfg.Store.SetEndpointStatus(ep.ID, statestore.EndpointOffline)
					s.Metrics.Counter("endpoints_marked_offline").Inc()
				}
			}
			if cfg.TaskLease > 0 {
				s.expireLeases(cfg.TaskLease)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// expireLeases fails non-terminal tasks stranded on offline endpoints whose
// last state change is older than the lease — one statestore batch per
// endpoint — and streams the failures to the submitting executors' group
// queues so futures resolve.
func (s *Service) expireLeases(lease time.Duration) {
	cutoff := time.Now().Add(-lease)
	for _, ep := range s.cfg.Store.ListEndpoints(statestore.EndpointFilter{Status: statestore.EndpointOffline}) {
		var (
			results []protocol.Result
			bodies  [][]byte
		)
		for _, id := range s.cfg.Store.ListTasksByEndpoint(ep.ID) {
			rec, err := s.cfg.Store.GetTask(id)
			if err != nil || rec.State.Terminal() || rec.Updated.After(cutoff) {
				continue
			}
			res := protocol.Result{
				TaskID:     id,
				State:      protocol.StateFailed,
				EndpointID: ep.ID,
				Error:      fmt.Sprintf("webservice: task lease expired after %s on offline endpoint %s", lease, ep.ID),
			}
			results, bodies = append(results, res), append(bodies, protocol.EncodeResult(&res))
		}
		for i, err := range s.recordTerminal(results, bodies) {
			if err != nil {
				continue // lost the race to a real terminal result
			}
			s.Metrics.Counter("lease_expired").Inc()
			s.log.WithTask(string(results[i].TaskID)).WithEndpoint(string(ep.ID)).
				Warn("task lease expired on offline endpoint", "lease", lease.String())
		}
	}
}

// ResultRetention is the documented result lifetime ("results ... are
// stored in the cloud for up to two weeks").
const ResultRetention = 14 * 24 * time.Hour

// StartRetentionSweeper purges terminal tasks older than retention
// (<=0 selects ResultRetention) every interval, then releases what they
// spilled: every object no remaining task references and nothing has used
// since the same cutoff is unlinked from a file-backed object store. It
// returns a stop function.
func (s *Service) StartRetentionSweeper(retention, interval time.Duration) (stop func()) {
	if retention <= 0 {
		retention = ResultRetention
	}
	done := make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			cutoff := time.Now().Add(-retention)
			if n := s.cfg.Store.PurgeTasksBefore(cutoff); n > 0 {
				s.Metrics.Counter("tasks_purged").Add(int64(n))
			}
			if s.cfg.Objects.FileBacked() { // a memory store sweeps nothing
				s.cfg.Objects.Sweep(s.cfg.Store.ObjectRefs(), cutoff)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// UsageStats aggregates deployment statistics (paper §VI).
type UsageStats struct {
	Functions     int                        `json:"functions"`
	Endpoints     int                        `json:"endpoints"`
	MultiUserEPs  int                        `json:"multi_user_endpoints"`
	UserEndpoints int                        `json:"user_endpoints"` // spawned by MEPs
	Tasks         int                        `json:"tasks"`
	TasksByState  map[protocol.TaskState]int `json:"tasks_by_state"`
}

// Usage reports aggregate statistics.
func (s *Service) Usage() UsageStats {
	tr := true
	meps := s.cfg.Store.ListEndpoints(statestore.EndpointFilter{MultiUser: &tr})
	ueps := 0
	for _, mep := range meps {
		ueps += len(s.cfg.Store.ListEndpoints(statestore.EndpointFilter{Parent: mep.ID}))
	}
	return UsageStats{
		Functions:     s.cfg.Store.CountFunctions(),
		Endpoints:     s.cfg.Store.CountEndpoints(),
		MultiUserEPs:  len(meps),
		UserEndpoints: ueps,
		Tasks:         s.cfg.Store.CountTasks(),
		TasksByState:  s.cfg.Store.CountTasksByState(),
	}
}

func containsUUID(list []protocol.UUID, id protocol.UUID) bool {
	for _, x := range list {
		if x == id {
			return true
		}
	}
	return false
}
