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
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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

// TaskRecord is a task's read view and its snapshot image, built from the
// task's packed row (taskrow.go). It keeps the task's PayloadRef but never
// its inline Payload: the queued message carries those bytes to the
// endpoint, and nothing reads them from the table. Result aliases the row's
// bytes; readers must not modify it.
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

// taskShards is the task-table shard count. Power of two so the shard
// index is a mask.
const taskShards = 16

// Store holds all service state. Safe for concurrent use.
type Store struct {
	fnMu      sync.RWMutex
	functions map[protocol.UUID]*FunctionRecord

	epMu      sync.RWMutex
	endpoints map[protocol.UUID]*EndpointRecord

	tasks [taskShards]taskShard
	// seq numbers created tasks, so ListTasksByEndpoint can merge the
	// shards' in-flight indexes in creation order.
	seq atomic.Uint64

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
		s.tasks[i].reset()
	}
	s.idem.init()
	s.groups.init()
	return s
}

// SetClock overrides the time source (tests).
func (s *Store) SetClock(now func() time.Time) { s.now = now }

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
// task's body (protocol.EncodeTask) as the caller encoded it for the queue,
// handed to the journal as is. Errors are CreateTasks's.
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
	keys, groups := groupKeys(len(tasks), func(i int) protocol.UUID { return tasks[i].ID }, func(i int) {
		if firstErr == nil {
			firstErr = fmt.Errorf("statestore: invalid task ID %q", tasks[i].ID)
		}
	})
	now := s.now()
	// Sequence numbers follow the batch order, whatever order the shards
	// are visited in.
	seq := s.seq.Add(uint64(len(tasks))) - uint64(len(tasks))
	var scratch []byte
	for si := range groups {
		if len(groups[si]) == 0 {
			continue
		}
		sh := &s.tasks[si]
		sh.mu.Lock()
		for _, i := range groups[si] {
			if _, ok := sh.slots[keys[i]]; ok {
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: task %s", ErrAlreadyExists, tasks[i].ID)
				}
				continue
			}
			rec := TaskRecord{Task: tasks[i], State: state, Created: now, Updated: now}
			scratch = sh.put(keys[i], &rec, seq+uint64(i), scratch)
		}
		sh.mu.Unlock()
	}
	return firstErr
}

func notFound(id protocol.UUID) error { return fmt.Errorf("%w: task %s", ErrNotFound, id) }

// GetTask fetches a task record.
func (s *Store) GetTask(id protocol.UUID) (TaskRecord, error) {
	k, ok := id.Pack()
	if !ok {
		return TaskRecord{}, notFound(id)
	}
	sh := &s.tasks[shardOf(k)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	slot, ok := sh.slots[k]
	if !ok {
		return TaskRecord{}, notFound(id)
	}
	return sh.record(id, sh.row(slot)), nil
}

// GetTaskRecords fetches a batch of task records, grouping reads by shard
// (one RLock per touched shard). Missing IDs are simply absent from the
// returned map.
func (s *Store) GetTaskRecords(ids []protocol.UUID) map[protocol.UUID]TaskRecord {
	out := make(map[protocol.UUID]TaskRecord, len(ids))
	keys, groups := groupKeys(len(ids), func(i int) protocol.UUID { return ids[i] }, func(int) {})
	for si := range groups {
		if len(groups[si]) == 0 {
			continue
		}
		sh := &s.tasks[si]
		sh.mu.RLock()
		for _, i := range groups[si] {
			if slot, ok := sh.slots[keys[i]]; ok {
				out[ids[i]] = sh.record(ids[i], sh.row(slot))
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
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keys, groups := groupKeys(len(ids), func(i int) protocol.UUID { return ids[i] }, func(i int) { note(notFound(ids[i])) })
	now := nanos(s.now())
	for si := range groups {
		if len(groups[si]) == 0 {
			continue
		}
		sh := &s.tasks[si]
		sh.mu.Lock()
		for _, i := range groups[si] {
			if slot, ok := sh.slots[keys[i]]; !ok {
				note(notFound(ids[i]))
			} else {
				note(sh.transition(keys[i], ids[i], sh.row(slot), state, now))
			}
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// transition moves k's row r to state, enforcing the state machine.
func (sh *taskShard) transition(k taskKey, id protocol.UUID, r *taskRow, state protocol.TaskState, now int64) error {
	from := stateNames[r.state]
	if !legalNext[from][state] {
		return fmt.Errorf("%w: %s -> %s (task %s)", ErrIllegalTransition, from, state, id)
	}
	to := stateCode(state)
	sh.counts[r.state]--
	sh.counts[to]++
	r.state, r.updated = to, now
	if state.Terminal() {
		r.completed = now
		sh.untrack(r.ep, k)
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
	_, errs := s.CompleteEncoded(results, nil)
	return errs
}

// Completion is what the result path reads back about a task it completed:
// the admission accounting and the submitter's group stream need these, and
// nothing else of the row.
type Completion struct {
	Created      time.Time
	UserIdentity string
	NumNodes     int
	GroupID      protocol.UUID
}

// CompleteEncoded is CompleteTasks for a caller that has each result's body
// in hand (bodies parallel to results, as AdmitTasks takes task bodies): the
// journal writes those bytes instead of encoding the results again. It also
// returns, parallel to results, each completed task's Completion, read in
// the same pass.
func (s *Store) CompleteEncoded(results []protocol.Result, bodies [][]byte) ([]Completion, []error) {
	errs := make([]error, len(results))
	done, jerr := s.logMutation(Mutation{Op: OpCompleteTasks, Results: results, Bodies: bodies})
	if jerr != nil {
		for i := range errs {
			errs[i] = jerr
		}
		return nil, errs
	}
	if done != nil {
		defer done()
	}
	keys, groups := groupKeys(len(results), func(i int) protocol.UUID { return results[i].TaskID }, func(i int) {
		errs[i] = notFound(results[i].TaskID)
	})
	out := make([]Completion, len(results))
	now := nanos(s.now())
	var scratch []byte
	for si := range groups {
		if len(groups[si]) == 0 {
			continue
		}
		sh := &s.tasks[si]
		sh.mu.Lock()
		for _, i := range groups[si] {
			scratch, out[i], errs[i] = sh.complete(keys[i], &results[i], now, scratch)
		}
		sh.mu.Unlock()
	}
	return out, errs
}

// complete records res on k's row and moves the row to res.State.
func (sh *taskShard) complete(k taskKey, res *protocol.Result, now int64, scratch []byte) ([]byte, Completion, error) {
	if !res.State.Terminal() {
		return scratch, Completion{}, fmt.Errorf("statestore: CompleteTask with non-terminal state %s", res.State)
	}
	slot, ok := sh.slots[k]
	if !ok {
		return scratch, Completion{}, notFound(res.TaskID)
	}
	r := sh.row(slot)
	if err := sh.transition(k, res.TaskID, r, res.State, now); err != nil {
		return scratch, Completion{}, err
	}
	var flags uint8
	scratch, flags = appendResultTail(append(scratch[:0], r.tail...), res.OutputRef, res.Error, res.Output)
	if flags != 0 {
		r.flags |= flags
		r.setTail(scratch)
	}
	return scratch, Completion{
		Created: timeOf(r.created), UserIdentity: sh.strs.str(r.user),
		NumNodes: int(r.fields().ints[0]), GroupID: protocol.UUID(sh.strs.str(r.group)),
	}, nil
}

// ListTasksByEndpoint returns the IDs of the endpoint's non-terminal tasks
// in creation order. A task leaves the list when it reaches a terminal
// state. After a Restore, tasks created in the same instant may come back in
// any order among themselves.
func (s *Store) ListTasksByEndpoint(ep protocol.UUID) []protocol.UUID {
	type entry struct {
		seq uint64
		k   taskKey
	}
	var entries []entry
	for si := range s.tasks {
		sh := &s.tasks[si]
		sh.mu.RLock()
		if h, ok := sh.strs.lookup(string(ep)); ok {
			for k, seq := range sh.inflight[h] {
				entries = append(entries, entry{seq, k})
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.seq, b.seq) })
	ids := make([]protocol.UUID, len(entries))
	for i, e := range entries {
		ids[i] = protocol.UnpackUUID(e.k)
	}
	return ids
}

// CountTasksByState tallies tasks per state from the shards' incremental
// counters — fixed cost regardless of table size, so drain loops and
// dashboards can poll it without scanning (a 5ms poll over a large table
// used to dominate whole benchmark runs and starve the submit path of the
// shard locks).
func (s *Store) CountTasksByState() map[protocol.TaskState]int {
	var counts [numStates]int
	for si := range s.tasks {
		sh := &s.tasks[si]
		sh.mu.RLock()
		for c, n := range sh.counts {
			counts[c] += n
		}
		sh.mu.RUnlock()
	}
	out := make(map[protocol.TaskState]int)
	for c, n := range counts {
		if n != 0 {
			out[stateNames[c]] = n
		}
	}
	return out
}

// CountTasks returns the total number of tasks.
func (s *Store) CountTasks() int {
	n := 0
	for si := range s.tasks {
		sh := &s.tasks[si]
		sh.mu.RLock()
		n += len(sh.slots)
		sh.mu.RUnlock()
	}
	return n
}

// PurgeTasksBefore deletes terminal task records completed before cutoff,
// implementing the service's bounded result retention ("results are stored
// in the cloud for up to two weeks"). It returns the number purged. A purged
// row's slot and the strings no remaining row names are released.
func (s *Store) PurgeTasksBefore(cutoff time.Time) int {
	done, jerr := s.logMutation(Mutation{Op: OpPurgeBefore, Cutoff: cutoff})
	if jerr != nil {
		return 0
	}
	if done != nil {
		defer done()
	}
	cut := nanos(cutoff)
	purged := 0
	for si := range s.tasks {
		sh := &s.tasks[si]
		sh.mu.Lock()
		for k, slot := range sh.slots {
			if r := sh.row(slot); r.completed != 0 && r.completed < cut && stateNames[r.state].Terminal() {
				sh.drop(k, slot)
				purged++
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
		for _, slot := range sh.slots {
			r := sh.row(slot)
			if r.flags&(tailPayloadRef|tailResultRef) == 0 {
				continue
			}
			f := r.fields()
			for _, ref := range [...][]byte{f.payloadRef, f.resultRef} {
				if len(ref) > 0 {
					refs[string(ref)] = struct{}{}
				}
			}
		}
		sh.mu.RUnlock()
	}
	return refs
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
// concurrent writes. Task rows are encoded shard by shard into the image:
// only one shard's views exist at a time, never a copy of the table.
func (s *Store) Snapshot() ([]byte, error) {
	var snap snapshot // every table but the tasks
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
	// The image's keys are written one table at a time, as json.Marshal
	// would write snapshot's fields, so the task rows can stream in between.
	var buf bytes.Buffer
	var err error
	table := func(key string, v any) {
		if err != nil {
			return
		}
		var b []byte
		b, err = json.Marshal(v)
		buf.WriteString(key)
		buf.Write(b)
	}
	table(`{"functions":`, snap.Functions)
	table(`,"endpoints":`, snap.Endpoints)
	if err == nil {
		buf.WriteString(`,"tasks":`)
		err = s.appendTasksJSON(&buf)
	}
	if len(snap.Idempotency) > 0 {
		table(`,"idempotency":`, snap.Idempotency)
	}
	if len(snap.RoutingGroups) > 0 {
		table(`,"routing_groups":`, snap.RoutingGroups)
	}
	if err != nil {
		return nil, err
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// appendTasksJSON writes the task table as a JSON array of TaskRecords
// (null when empty, as json.Marshal writes a nil slice).
func (s *Store) appendTasksJSON(buf *bytes.Buffer) error {
	enc := json.NewEncoder(buf)
	start := buf.Len()
	var views []TaskRecord
	for si := range s.tasks {
		sh := &s.tasks[si]
		sh.mu.RLock()
		views = views[:0]
		for k, slot := range sh.slots {
			views = append(views, sh.record(protocol.UnpackUUID(k), sh.row(slot)))
		}
		sh.mu.RUnlock()
		for i := range views {
			if buf.Len() == start {
				buf.WriteByte('[')
			} else {
				buf.WriteByte(',')
			}
			if err := enc.Encode(&views[i]); err != nil {
				return err
			}
			buf.Truncate(buf.Len() - 1) // Encode's newline
		}
	}
	if buf.Len() == start {
		buf.WriteString("null")
	} else {
		buf.WriteByte(']')
	}
	return nil
}

// Restore replaces the store contents from a Snapshot image. Inline payloads
// in an image written before the table stopped keeping them are dropped.
func (s *Store) Restore(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("statestore: restore: %w", err)
	}
	for i := range snap.Tasks {
		t := &snap.Tasks[i]
		if _, ok := t.Task.ID.Pack(); !ok {
			return fmt.Errorf("statestore: restore: invalid task ID %q", t.Task.ID)
		}
		if stateCode(t.State) == 0 {
			return fmt.Errorf("statestore: restore: task %s: unknown state %q", t.Task.ID, t.State)
		}
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
		sh.reset()
		sh.mu.Unlock()
	}
	// The image lists rows in no order; sequence numbers follow creation
	// times, so ListTasksByEndpoint stays in creation order.
	slices.SortStableFunc(snap.Tasks, func(a, b TaskRecord) int { return a.Created.Compare(b.Created) })
	var scratch []byte
	for i := range snap.Tasks {
		t := &snap.Tasks[i]
		k, _ := t.Task.ID.Pack()
		sh := &s.tasks[shardOf(k)]
		sh.mu.Lock()
		if slot, ok := sh.slots[k]; ok {
			sh.drop(k, slot) // a duplicate ID's later row wins, as a map assignment did
		}
		scratch = sh.put(k, t, s.seq.Add(1), scratch)
		sh.mu.Unlock()
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
