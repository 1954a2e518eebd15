// Package statestore is the relational-database substitute backing the web
// service: typed tables for registered functions, endpoints, and tasks, with
// the task state machine enforced at the storage layer so that every task
// reaches exactly one terminal state. A JSON snapshot/restore pair stands in
// for database durability.
//
// Concurrency layout: each table has its own lock so function lookups never
// contend with task writes, and the task table — the hot row set on the
// submit and result paths — is split across taskShards hash shards, each
// guarded by an RWMutex. Batch operations (CreateTasks, TransitionTasks,
// CompleteTasks, GetTaskRecords) group their inputs by shard so a burst of N
// tasks costs one lock round trip per touched shard instead of N.
package statestore

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"globuscompute/internal/protocol"
)

// Common errors.
var (
	ErrNotFound          = errors.New("statestore: record not found")
	ErrAlreadyExists     = errors.New("statestore: record already exists")
	ErrIllegalTransition = errors.New("statestore: illegal task state transition")
)

// FunctionRecord is an immutable registered function. Re-registering the
// same body yields a new UUID; the MEP allowed-functions feature relies on
// this immutability.
type FunctionRecord struct {
	ID         protocol.UUID         `json:"id"`
	Owner      string                `json:"owner"`
	Kind       protocol.FunctionKind `json:"kind"`
	Definition []byte                `json:"definition"`
	Registered time.Time             `json:"registered"`
}

// EndpointStatus is the service's view of an endpoint.
type EndpointStatus string

const (
	EndpointOnline  EndpointStatus = "online"
	EndpointOffline EndpointStatus = "offline"
)

// EndpointRecord describes a registered endpoint, single- or multi-user.
type EndpointRecord struct {
	ID        protocol.UUID `json:"id"`
	Name      string        `json:"name"`
	Owner     string        `json:"owner"`
	MultiUser bool          `json:"multi_user"`
	// Parent links a user endpoint spawned by a multi-user endpoint to its
	// MEP, for the usage accounting in the paper's §VI.
	Parent        protocol.UUID     `json:"parent,omitempty"`
	Status        EndpointStatus    `json:"status"`
	Registered    time.Time         `json:"registered"`
	LastHeartbeat time.Time         `json:"last_heartbeat"`
	Metadata      map[string]string `json:"metadata,omitempty"`
	// AllowedFunctions, when non-empty, restricts which function UUIDs the
	// endpoint will execute (science-gateway deployments).
	AllowedFunctions []protocol.UUID `json:"allowed_functions,omitempty"`
	// AuthPolicy names a Globus-Auth-style policy checked at submit time.
	AuthPolicy string `json:"auth_policy,omitempty"`
	// Load is the agent's most recent self-reported status; LoadAt stamps
	// when it arrived. A dead endpoint's last report would otherwise read
	// as current forever — placement and the backlog-shed path treat
	// reports older than three heartbeat intervals as unknown.
	Load   *EndpointLoad `json:"load,omitempty"`
	LoadAt time.Time     `json:"load_at,omitempty"`
}

// LoadAge returns how old the endpoint's load report is, or -1 when it has
// never reported load.
func (r EndpointRecord) LoadAge(now time.Time) time.Duration {
	if r.Load == nil || r.LoadAt.IsZero() {
		return -1
	}
	return now.Sub(r.LoadAt)
}

// EndpointLoad is the agent-reported utilization carried in heartbeats.
type EndpointLoad struct {
	PendingTasks     int   `json:"pending_tasks"`
	TotalWorkers     int   `json:"total_workers"`
	FreeWorkers      int   `json:"free_workers"`
	TasksReceived    int64 `json:"tasks_received"`
	ResultsPublished int64 `json:"results_published"`
	// EgressBacklog is the agent's count of completed results not yet
	// published — endpoint pressure that PendingTasks alone misses, so MEP
	// routing and the dashboard see the true queue depth behind an endpoint.
	// Pointer so an agent that predates the field (and never reports it) is
	// distinguishable from a live zero backlog: nil means "not reported" and
	// federation must not record it as data.
	EgressBacklog *int `json:"egress_backlog,omitempty"`
}

// TaskRecord is the authoritative task row. It keeps the task's PayloadRef
// but never its inline Payload: the queued message carries those bytes to the
// endpoint, and nothing reads them from the table.
type TaskRecord struct {
	Task      protocol.Task      `json:"task"`
	State     protocol.TaskState `json:"state"`
	Result    []byte             `json:"result,omitempty"`
	ResultRef string             `json:"result_ref,omitempty"`
	Error     string             `json:"error,omitempty"`
	Created   time.Time          `json:"created"`
	Updated   time.Time          `json:"updated"`
	Completed time.Time          `json:"completed,omitempty"`
}

// taskShards is the task-table shard count. Power of two so the hash
// modulo compiles to a mask.
const taskShards = 16

// taskShard is one slice of the task table. counts tallies the shard's
// tasks per state incrementally, so state counts never require a table
// scan — pollers (benchmark drains, gc-top) read them at fixed cost no
// matter how many tasks the table holds.
type taskShard struct {
	mu     sync.RWMutex
	m      map[protocol.UUID]*TaskRecord
	counts map[protocol.TaskState]int
}

// idxShard is one slice of the endpoint → task-IDs secondary index
// (creation order preserved per endpoint).
type idxShard struct {
	mu sync.RWMutex
	m  map[protocol.UUID][]protocol.UUID
}

// Store holds all service state. Safe for concurrent use.
type Store struct {
	fnMu      sync.RWMutex
	functions map[protocol.UUID]*FunctionRecord

	epMu      sync.RWMutex
	endpoints map[protocol.UUID]*EndpointRecord

	tasks [taskShards]taskShard
	byEp  [taskShards]idxShard

	// idem maps (owner, idempotency key) -> created task IDs (see
	// idempotency.go).
	idem idemTable

	// groups is the routing-group table (see routinggroup.go).
	groups groupTable

	// jrnl, when set, receives every mutation before it is applied (see
	// journal.go). Attached once at startup, after recovery replay.
	jrnl Journal

	now func() time.Time
}

// New returns an empty store.
func New() *Store {
	s := &Store{
		functions: make(map[protocol.UUID]*FunctionRecord),
		endpoints: make(map[protocol.UUID]*EndpointRecord),
		now:       time.Now,
	}
	for i := range s.tasks {
		s.tasks[i].m = make(map[protocol.UUID]*TaskRecord)
		s.tasks[i].counts = make(map[protocol.TaskState]int)
	}
	for i := range s.byEp {
		s.byEp[i].m = make(map[protocol.UUID][]protocol.UUID)
	}
	s.idem.init()
	s.groups.init()
	return s
}

// SetClock overrides the time source (tests).
func (s *Store) SetClock(now func() time.Time) { s.now = now }

func shardOf(id protocol.UUID) uint32 {
	h := fnv.New32a()
	h.Write([]byte(id))
	return h.Sum32() % taskShards
}

func (s *Store) taskShard(id protocol.UUID) *taskShard { return &s.tasks[shardOf(id)] }
func (s *Store) idxShard(ep protocol.UUID) *idxShard   { return &s.byEp[shardOf(ep)] }

// --- functions ---

// PutFunction registers an immutable function. Registering an existing ID
// fails.
func (s *Store) PutFunction(rec FunctionRecord) error {
	if !rec.ID.Valid() {
		return fmt.Errorf("statestore: invalid function ID %q", rec.ID)
	}
	done, err := s.logMutation(Mutation{Op: OpPutFunction, Function: &rec})
	if err != nil {
		return err
	}
	if done != nil {
		defer done()
	}
	s.fnMu.Lock()
	defer s.fnMu.Unlock()
	if _, ok := s.functions[rec.ID]; ok {
		return fmt.Errorf("%w: function %s", ErrAlreadyExists, rec.ID)
	}
	if rec.Registered.IsZero() {
		rec.Registered = s.now()
	}
	rec.Definition = append([]byte(nil), rec.Definition...)
	s.functions[rec.ID] = &rec
	return nil
}

// GetFunction fetches a function record.
func (s *Store) GetFunction(id protocol.UUID) (FunctionRecord, error) {
	s.fnMu.RLock()
	defer s.fnMu.RUnlock()
	rec, ok := s.functions[id]
	if !ok {
		return FunctionRecord{}, fmt.Errorf("%w: function %s", ErrNotFound, id)
	}
	return *rec, nil
}

// CountFunctions returns the number of registered functions.
func (s *Store) CountFunctions() int {
	s.fnMu.RLock()
	defer s.fnMu.RUnlock()
	return len(s.functions)
}

// --- endpoints ---

// UpsertEndpoint inserts or replaces an endpoint record.
func (s *Store) UpsertEndpoint(rec EndpointRecord) error {
	if !rec.ID.Valid() {
		return fmt.Errorf("statestore: invalid endpoint ID %q", rec.ID)
	}
	done, err := s.logMutation(Mutation{Op: OpUpsertEndpoint, Endpoint: &rec})
	if err != nil {
		return err
	}
	if done != nil {
		defer done()
	}
	s.epMu.Lock()
	defer s.epMu.Unlock()
	if rec.Registered.IsZero() {
		if old, ok := s.endpoints[rec.ID]; ok {
			rec.Registered = old.Registered
		} else {
			rec.Registered = s.now()
		}
	}
	s.endpoints[rec.ID] = &rec
	return nil
}

// GetEndpoint fetches an endpoint record.
func (s *Store) GetEndpoint(id protocol.UUID) (EndpointRecord, error) {
	s.epMu.RLock()
	defer s.epMu.RUnlock()
	rec, ok := s.endpoints[id]
	if !ok {
		return EndpointRecord{}, fmt.Errorf("%w: endpoint %s", ErrNotFound, id)
	}
	return *rec, nil
}

// SetEndpointStatus updates status and heartbeat time.
func (s *Store) SetEndpointStatus(id protocol.UUID, status EndpointStatus) error {
	done, err := s.logMutation(Mutation{Op: OpSetEndpointStatus, EndpointID: id, Status: status})
	if err != nil {
		return err
	}
	if done != nil {
		defer done()
	}
	s.epMu.Lock()
	defer s.epMu.Unlock()
	rec, ok := s.endpoints[id]
	if !ok {
		return fmt.Errorf("%w: endpoint %s", ErrNotFound, id)
	}
	rec.Status = status
	rec.LastHeartbeat = s.now()
	return nil
}

// SetEndpointLoad records an agent's self-reported load, stamped with the
// store clock so readers can tell a live report from a dead endpoint's last
// words.
func (s *Store) SetEndpointLoad(id protocol.UUID, load EndpointLoad) error {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	rec, ok := s.endpoints[id]
	if !ok {
		return fmt.Errorf("%w: endpoint %s", ErrNotFound, id)
	}
	rec.Load = &load
	rec.LoadAt = s.now()
	return nil
}

// SetEndpointHeartbeat records one heartbeat — liveness plus (optionally) the
// agent's load report — under a single lock acquisition. At fleet scale the
// heartbeat stream is the endpoint table's hottest writer; taking the lock
// once per report instead of once per field keeps a 10k-endpoint fleet's
// heartbeats from starving the submit path's reads.
func (s *Store) SetEndpointHeartbeat(id protocol.UUID, status EndpointStatus, load *EndpointLoad) error {
	done, err := s.logMutation(Mutation{Op: OpSetEndpointStatus, EndpointID: id, Status: status})
	if err != nil {
		return err
	}
	if done != nil {
		defer done()
	}
	s.epMu.Lock()
	defer s.epMu.Unlock()
	rec, ok := s.endpoints[id]
	if !ok {
		return fmt.Errorf("%w: endpoint %s", ErrNotFound, id)
	}
	rec.Status = status
	rec.LastHeartbeat = s.now()
	if load != nil {
		l := *load
		rec.Load = &l
		rec.LoadAt = s.now()
	}
	return nil
}

// GetEndpoints fetches a batch of endpoint records under one read lock, in
// input order; missing IDs are skipped. The routing hot path snapshots a
// group's members through this instead of N GetEndpoint round trips.
func (s *Store) GetEndpoints(ids []protocol.UUID) []EndpointRecord {
	out := make([]EndpointRecord, 0, len(ids))
	s.epMu.RLock()
	defer s.epMu.RUnlock()
	for _, id := range ids {
		if rec, ok := s.endpoints[id]; ok {
			out = append(out, *rec)
		}
	}
	return out
}

// EndpointFilter selects endpoints in ListEndpoints.
type EndpointFilter struct {
	Owner     string
	MultiUser *bool
	Parent    protocol.UUID
	Status    EndpointStatus
}

// ListEndpoints returns endpoint records matching the filter.
func (s *Store) ListEndpoints(f EndpointFilter) []EndpointRecord {
	s.epMu.RLock()
	defer s.epMu.RUnlock()
	var out []EndpointRecord
	for _, rec := range s.endpoints {
		if f.Owner != "" && rec.Owner != f.Owner {
			continue
		}
		if f.MultiUser != nil && rec.MultiUser != *f.MultiUser {
			continue
		}
		if f.Parent != "" && rec.Parent != f.Parent {
			continue
		}
		if f.Status != "" && rec.Status != f.Status {
			continue
		}
		out = append(out, *rec)
	}
	return out
}

// CountEndpoints returns the number of registered endpoints.
func (s *Store) CountEndpoints() int {
	s.epMu.RLock()
	defer s.epMu.RUnlock()
	return len(s.endpoints)
}

// --- tasks ---

// legalNext defines the task state machine. A terminal state has no
// successors, guaranteeing exactly-one-terminal-state.
var legalNext = map[protocol.TaskState]map[protocol.TaskState]bool{
	protocol.StateReceived: {
		protocol.StateWaiting: true, protocol.StateDelivered: true,
		protocol.StateCancelled: true, protocol.StateFailed: true,
	},
	protocol.StateWaiting: {
		protocol.StateDelivered: true, protocol.StateCancelled: true,
		// Success/failure may land while the record still reads waiting. The
		// service admits straight to Delivered (AdmitTasks), but logs written
		// before it did, and direct store users that publish before acking
		// Delivered, can see a fast agent's result outrun that ack. The
		// result is authoritative — rejecting it here would drop it and
		// strand the task non-terminal forever.
		protocol.StateFailed: true, protocol.StateSuccess: true,
	},
	protocol.StateDelivered: {
		protocol.StateRunning: true, protocol.StateSuccess: true,
		protocol.StateFailed: true, protocol.StateCancelled: true,
	},
	protocol.StateRunning: {
		protocol.StateSuccess: true, protocol.StateFailed: true,
		protocol.StateCancelled: true,
	},
}

// CreateTask is CreateTasks for one task.
func (s *Store) CreateTask(task protocol.Task) error {
	return s.CreateTasks([]protocol.Task{task})
}

// CreateTasks inserts a batch of tasks in StateReceived, grouping by shard
// so each touched shard is locked once. Tasks that fail validation or
// collide with an existing ID are skipped; the first such error is
// returned, with all other tasks still created (the web service generates
// fresh UUIDs, so collisions indicate a caller bug, not a race to report
// precisely).
func (s *Store) CreateTasks(tasks []protocol.Task) error {
	return s.insertTasks(Mutation{Op: OpCreateTasks, Tasks: tasks}, protocol.StateReceived)
}

// AdmitTasks is the submit path's single journaled step: it inserts the
// batch directly in StateDelivered — the caller publishes the tasks to their
// endpoint queues right after — so one record covers what CreateTasks plus
// two TransitionTasks would. bodies, when non-nil, is parallel to tasks: each
// task's JSON as the caller marshalled it for the queue, handed to the
// journal as is. Errors are CreateTasks's.
func (s *Store) AdmitTasks(tasks []protocol.Task, bodies [][]byte) error {
	return s.insertTasks(Mutation{Op: OpAdmitTasks, Tasks: tasks, Bodies: bodies}, protocol.StateDelivered)
}

// insertTasks journals m, payloads included, and inserts m.Tasks in state
// without their inline payloads.
func (s *Store) insertTasks(m Mutation, state protocol.TaskState) error {
	tasks := m.Tasks
	done, jerr := s.logMutation(m)
	if jerr != nil {
		return jerr
	}
	if done != nil {
		defer done()
	}
	var firstErr error
	// Group indices by shard.
	var groups [taskShards][]int
	for i, t := range tasks {
		if !t.ID.Valid() {
			if firstErr == nil {
				firstErr = fmt.Errorf("statestore: invalid task ID %q", t.ID)
			}
			continue
		}
		groups[shardOf(t.ID)] = append(groups[shardOf(t.ID)], i)
	}
	now := s.now()
	created := make([]bool, len(tasks))
	for si := range groups {
		if len(groups[si]) == 0 {
			continue
		}
		sh := &s.tasks[si]
		sh.mu.Lock()
		for _, i := range groups[si] {
			t := tasks[i]
			if _, ok := sh.m[t.ID]; ok {
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: task %s", ErrAlreadyExists, t.ID)
				}
				continue
			}
			t.Payload = nil
			sh.m[t.ID] = &TaskRecord{Task: t, State: state, Created: now, Updated: now}
			sh.counts[state]++
			created[i] = true
		}
		sh.mu.Unlock()
	}
	// Index the created tasks, grouped by endpoint shard, preserving the
	// submit order within each endpoint.
	var idxGroups [taskShards][]int
	for i, ok := range created {
		if ok {
			g := shardOf(tasks[i].EndpointID)
			idxGroups[g] = append(idxGroups[g], i)
		}
	}
	for si := range idxGroups {
		if len(idxGroups[si]) == 0 {
			continue
		}
		ix := &s.byEp[si]
		ix.mu.Lock()
		for _, i := range idxGroups[si] {
			ix.m[tasks[i].EndpointID] = append(ix.m[tasks[i].EndpointID], tasks[i].ID)
		}
		ix.mu.Unlock()
	}
	return firstErr
}

func (s *Store) indexTask(ep, id protocol.UUID) {
	ix := s.idxShard(ep)
	ix.mu.Lock()
	ix.m[ep] = append(ix.m[ep], id)
	ix.mu.Unlock()
}

// GetTask fetches a task record.
func (s *Store) GetTask(id protocol.UUID) (TaskRecord, error) {
	sh := s.taskShard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.m[id]
	if !ok {
		return TaskRecord{}, fmt.Errorf("%w: task %s", ErrNotFound, id)
	}
	return *rec, nil
}

// GetTaskRecords fetches a batch of task records, grouping reads by shard
// (one RLock per touched shard). Missing IDs are simply absent from the
// returned map.
func (s *Store) GetTaskRecords(ids []protocol.UUID) map[protocol.UUID]TaskRecord {
	out := make(map[protocol.UUID]TaskRecord, len(ids))
	var groups [taskShards][]protocol.UUID
	for _, id := range ids {
		groups[shardOf(id)] = append(groups[shardOf(id)], id)
	}
	for si := range groups {
		if len(groups[si]) == 0 {
			continue
		}
		sh := &s.tasks[si]
		sh.mu.RLock()
		for _, id := range groups[si] {
			if rec, ok := sh.m[id]; ok {
				out[id] = *rec
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// TransitionTask is TransitionTasks for one task.
func (s *Store) TransitionTask(id protocol.UUID, state protocol.TaskState) error {
	return s.TransitionTasks([]protocol.UUID{id}, state)
}

// TransitionTasks moves a batch of tasks to state, enforcing the state
// machine, one lock round trip per touched shard. The first per-task error
// is returned; remaining tasks still transition.
func (s *Store) TransitionTasks(ids []protocol.UUID, state protocol.TaskState) error {
	done, jerr := s.logMutation(Mutation{Op: OpTransitionTasks, TaskIDs: ids, State: state})
	if jerr != nil {
		return jerr
	}
	if done != nil {
		defer done()
	}
	var firstErr error
	var groups [taskShards][]protocol.UUID
	for _, id := range ids {
		groups[shardOf(id)] = append(groups[shardOf(id)], id)
	}
	for si := range groups {
		if len(groups[si]) == 0 {
			continue
		}
		sh := &s.tasks[si]
		sh.mu.Lock()
		for _, id := range groups[si] {
			if err := s.transitionLocked(sh, id, state); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sh.mu.Unlock()
	}
	return firstErr
}

func (s *Store) transitionLocked(sh *taskShard, id protocol.UUID, state protocol.TaskState) error {
	rec, ok := sh.m[id]
	if !ok {
		return fmt.Errorf("%w: task %s", ErrNotFound, id)
	}
	if !legalNext[rec.State][state] {
		return fmt.Errorf("%w: %s -> %s (task %s)", ErrIllegalTransition, rec.State, state, id)
	}
	sh.counts[rec.State]--
	sh.counts[state]++
	rec.State = state
	rec.Updated = s.now()
	if state.Terminal() {
		rec.Completed = rec.Updated
	}
	return nil
}

// CompleteTask is CompleteTasks for one result.
func (s *Store) CompleteTask(res protocol.Result) error {
	return s.CompleteTasks([]protocol.Result{res})[0]
}

// CompleteTasks applies a batch of results — each records its output and
// moves its task to its terminal state in one step — one lock round trip per
// touched shard. The returned slice is parallel to results: errs[i] is nil
// when results[i] was applied, so the caller can ack or dead-letter each
// source message individually.
func (s *Store) CompleteTasks(results []protocol.Result) []error {
	return s.CompleteEncoded(results, nil)
}

// CompleteEncoded is CompleteTasks for a caller that has each result's JSON
// in hand (bodies parallel to results, as AdmitTasks takes task bodies): the
// journal writes those bytes instead of encoding the results again.
func (s *Store) CompleteEncoded(results []protocol.Result, bodies [][]byte) []error {
	errs := make([]error, len(results))
	done, jerr := s.logMutation(Mutation{Op: OpCompleteTasks, Results: results, Bodies: bodies})
	if jerr != nil {
		for i := range errs {
			errs[i] = jerr
		}
		return errs
	}
	if done != nil {
		defer done()
	}
	var groups [taskShards][]int
	for i, res := range results {
		if !res.State.Terminal() {
			errs[i] = fmt.Errorf("statestore: CompleteTask with non-terminal state %s", res.State)
			continue
		}
		groups[shardOf(res.TaskID)] = append(groups[shardOf(res.TaskID)], i)
	}
	for si := range groups {
		if len(groups[si]) == 0 {
			continue
		}
		sh := &s.tasks[si]
		sh.mu.Lock()
		for _, i := range groups[si] {
			errs[i] = s.completeLocked(sh, results[i])
		}
		sh.mu.Unlock()
	}
	return errs
}

func (s *Store) completeLocked(sh *taskShard, res protocol.Result) error {
	rec, ok := sh.m[res.TaskID]
	if !ok {
		return fmt.Errorf("%w: task %s", ErrNotFound, res.TaskID)
	}
	if err := s.transitionLocked(sh, res.TaskID, res.State); err != nil {
		return err
	}
	rec.Result = append([]byte(nil), res.Output...)
	rec.ResultRef = res.OutputRef
	rec.Error = res.Error
	return nil
}

// ListTasksByEndpoint returns the task IDs submitted to an endpoint in
// creation order.
func (s *Store) ListTasksByEndpoint(ep protocol.UUID) []protocol.UUID {
	ix := s.idxShard(ep)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ids := ix.m[ep]
	return append([]protocol.UUID(nil), ids...)
}

// CountTasksByState tallies tasks per state from the shards' incremental
// counters — fixed cost regardless of table size, so drain loops and
// dashboards can poll it without scanning (a 5ms poll over a large table
// used to dominate whole benchmark runs and starve the submit path of the
// shard locks).
func (s *Store) CountTasksByState() map[protocol.TaskState]int {
	out := make(map[protocol.TaskState]int)
	for si := range s.tasks {
		sh := &s.tasks[si]
		sh.mu.RLock()
		for st, n := range sh.counts {
			if n != 0 {
				out[st] += n
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// CountTasks returns the total number of tasks.
func (s *Store) CountTasks() int {
	n := 0
	for si := range s.tasks {
		sh := &s.tasks[si]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// PurgeTasksBefore deletes terminal task records completed before cutoff,
// implementing the service's bounded result retention ("results are stored
// in the cloud for up to two weeks"). It returns the number purged.
func (s *Store) PurgeTasksBefore(cutoff time.Time) int {
	done, jerr := s.logMutation(Mutation{Op: OpPurgeBefore, Cutoff: cutoff})
	if jerr != nil {
		return 0
	}
	if done != nil {
		defer done()
	}
	purged := 0
	for si := range s.tasks {
		sh := &s.tasks[si]
		sh.mu.Lock()
		for id, rec := range sh.m {
			if rec.State.Terminal() && !rec.Completed.IsZero() && rec.Completed.Before(cutoff) {
				delete(sh.m, id)
				sh.counts[rec.State]--
				purged++
				s.unindexTask(rec.Task.EndpointID, id)
			}
		}
		sh.mu.Unlock()
	}
	return purged
}

// ObjectRefs returns the object-store keys the task table still references:
// the spilled payload and result of every task not yet purged. It is the
// mark set of the retention sweeper's object sweep.
func (s *Store) ObjectRefs() map[string]struct{} {
	refs := make(map[string]struct{})
	for si := range s.tasks {
		sh := &s.tasks[si]
		sh.mu.RLock()
		for _, rec := range sh.m {
			if rec.Task.PayloadRef != "" {
				refs[rec.Task.PayloadRef] = struct{}{}
			}
			if rec.ResultRef != "" {
				refs[rec.ResultRef] = struct{}{}
			}
		}
		sh.mu.RUnlock()
	}
	return refs
}

func (s *Store) unindexTask(ep, id protocol.UUID) {
	ix := s.idxShard(ep)
	ix.mu.Lock()
	ids := ix.m[ep]
	for i, tid := range ids {
		if tid == id {
			ix.m[ep] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	ix.mu.Unlock()
}

// --- durability ---

// snapshot is the JSON image of the full store.
type snapshot struct {
	Functions     []FunctionRecord     `json:"functions"`
	Endpoints     []EndpointRecord     `json:"endpoints"`
	Tasks         []TaskRecord         `json:"tasks"`
	Idempotency   []IdempotencyRecord  `json:"idempotency,omitempty"`
	RoutingGroups []RoutingGroupRecord `json:"routing_groups,omitempty"`
}

// Snapshot serializes the store to JSON. Each table (and task shard) is
// read-locked in turn, so the image is per-table consistent; like any
// periodic database dump it is a point-in-time approximation under
// concurrent writes.
func (s *Store) Snapshot() ([]byte, error) {
	var snap snapshot
	s.fnMu.RLock()
	for _, f := range s.functions {
		snap.Functions = append(snap.Functions, *f)
	}
	s.fnMu.RUnlock()
	s.epMu.RLock()
	for _, e := range s.endpoints {
		snap.Endpoints = append(snap.Endpoints, *e)
	}
	s.epMu.RUnlock()
	for si := range s.tasks {
		sh := &s.tasks[si]
		sh.mu.RLock()
		for _, t := range sh.m {
			snap.Tasks = append(snap.Tasks, *t)
		}
		sh.mu.RUnlock()
	}
	s.idem.mu.RLock()
	for _, rec := range s.idem.m {
		snap.Idempotency = append(snap.Idempotency, *rec)
	}
	s.idem.mu.RUnlock()
	s.groups.mu.RLock()
	for _, rec := range s.groups.m {
		snap.RoutingGroups = append(snap.RoutingGroups, *rec)
	}
	s.groups.mu.RUnlock()
	return json.Marshal(snap)
}

// Restore replaces the store contents from a Snapshot image. Inline payloads
// in an image written before the table stopped keeping them are dropped.
func (s *Store) Restore(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("statestore: restore: %w", err)
	}
	s.fnMu.Lock()
	s.functions = make(map[protocol.UUID]*FunctionRecord, len(snap.Functions))
	for i := range snap.Functions {
		f := snap.Functions[i]
		s.functions[f.ID] = &f
	}
	s.fnMu.Unlock()
	s.epMu.Lock()
	s.endpoints = make(map[protocol.UUID]*EndpointRecord, len(snap.Endpoints))
	for i := range snap.Endpoints {
		e := snap.Endpoints[i]
		s.endpoints[e.ID] = &e
	}
	s.epMu.Unlock()
	for si := range s.tasks {
		sh := &s.tasks[si]
		sh.mu.Lock()
		sh.m = make(map[protocol.UUID]*TaskRecord)
		sh.counts = make(map[protocol.TaskState]int)
		sh.mu.Unlock()
	}
	for si := range s.byEp {
		ix := &s.byEp[si]
		ix.mu.Lock()
		ix.m = make(map[protocol.UUID][]protocol.UUID)
		ix.mu.Unlock()
	}
	for i := range snap.Tasks {
		t := snap.Tasks[i]
		t.Task.Payload = nil
		sh := s.taskShard(t.Task.ID)
		sh.mu.Lock()
		sh.m[t.Task.ID] = &t
		sh.counts[t.State]++
		sh.mu.Unlock()
		s.indexTask(t.Task.EndpointID, t.Task.ID)
	}
	s.idem.mu.Lock()
	s.idem.m = make(map[string]*IdempotencyRecord, len(snap.Idempotency))
	for i := range snap.Idempotency {
		rec := snap.Idempotency[i]
		s.idem.m[idemKey(rec.Owner, rec.Key)] = &rec
	}
	s.idem.mu.Unlock()
	s.groups.mu.Lock()
	s.groups.m = make(map[protocol.UUID]*RoutingGroupRecord, len(snap.RoutingGroups))
	for i := range snap.RoutingGroups {
		rec := snap.RoutingGroups[i]
		s.groups.m[rec.ID] = &rec
	}
	s.groups.mu.Unlock()
	return nil
}
