package statestore

import (
	"fmt"
	"time"

	"globuscompute/internal/protocol"
)

// Write-ahead journaling: when a Journal is attached, every mutating
// operation is logged — and must be durable — before it touches memory, so
// a crashed process can rebuild the store by replaying the log onto the
// last snapshot. The journal records logical operations, not row images;
// replay re-executes them through the same state machine, so an op that was
// rejected live (duplicate create, illegal transition) is rejected again on
// replay and the exactly-one-terminal-state guarantee survives recovery.
//
// The load report SetEndpointHeartbeat carries is deliberately not
// journaled: it is ephemeral telemetry refreshed by the next heartbeat, not
// state worth an fsync.

// MutationOp names a journaled statestore operation.
type MutationOp string

// Journaled operations.
const (
	OpPutFunction       MutationOp = "put_function"
	OpUpsertEndpoint    MutationOp = "upsert_endpoint"
	OpSetEndpointStatus MutationOp = "set_endpoint_status"
	OpCreateTasks       MutationOp = "create_tasks"
	OpAdmitTasks        MutationOp = "admit_tasks"
	OpTransitionTasks   MutationOp = "transition_tasks"
	OpCompleteTasks     MutationOp = "complete_tasks"
	OpPurgeBefore       MutationOp = "purge_before"
	OpPutIdempotency    MutationOp = "put_idempotency"
	OpPurgeIdempotency  MutationOp = "purge_idempotency"
	OpPutRoutingGroup   MutationOp = "put_routing_group"

	// Decode-only: the store no longer writes the single-item records, but a
	// log written before it stopped still replays.
	OpCreateTask     MutationOp = "create_task"
	OpTransitionTask MutationOp = "transition_task"
	OpCompleteTask   MutationOp = "complete_task"
)

// Mutation is one journaled operation. Only the fields relevant to Op are
// populated; At carries the live operation's clock so replayed records keep
// their original timestamps.
type Mutation struct {
	Op MutationOp `json:"op"`
	At time.Time  `json:"at"`

	Function   *FunctionRecord    `json:"function,omitempty"`
	Endpoint   *EndpointRecord    `json:"endpoint,omitempty"`
	EndpointID protocol.UUID      `json:"endpoint_id,omitempty"`
	Status     EndpointStatus     `json:"status,omitempty"`
	Task       *protocol.Task     `json:"task,omitempty"`
	Tasks      []protocol.Task    `json:"tasks,omitempty"`
	TaskIDs    []protocol.UUID    `json:"task_ids,omitempty"`
	State      protocol.TaskState `json:"state,omitempty"`
	Result     *protocol.Result   `json:"result,omitempty"`
	Results    []protocol.Result  `json:"results,omitempty"`
	// Bodies, when set, is parallel to Tasks (admit) or Results (complete):
	// each item's body as the caller already encoded it for the message
	// queue (protocol.EncodeTask / EncodeResult), so a journal can write
	// those bytes instead of encoding again.
	Bodies       [][]byte            `json:"-"`
	Cutoff       time.Time           `json:"cutoff,omitempty"`
	Idempotency  *IdempotencyRecord  `json:"idempotency,omitempty"`
	RoutingGroup *RoutingGroupRecord `json:"routing_group,omitempty"`
}

// Journal is the write-ahead hook. LogMutation must make m durable before
// returning; the returned applied func is called (exactly once) after the
// mutation is visible in memory, which lets the journal track the safe
// snapshot horizon — the LSN below which every logged mutation is reflected
// in a Snapshot taken now.
type Journal interface {
	LogMutation(m Mutation) (applied func(), err error)
}

// SetJournal attaches the write-ahead journal. It must be called before the
// store serves traffic (typically right after recovery replay) and is not
// synchronized against in-flight mutations.
func (s *Store) SetJournal(j Journal) { s.jrnl = j }

// logMutation journals m (stamping At from the store clock) and returns the
// applied callback, or (nil, nil) when no journal is attached.
func (s *Store) logMutation(m Mutation) (func(), error) {
	j := s.jrnl
	if j == nil {
		return nil, nil
	}
	if m.At.IsZero() {
		m.At = s.now()
	}
	done, err := j.LogMutation(m)
	if err != nil {
		return nil, fmt.Errorf("statestore: journal: %w", err)
	}
	return done, nil
}

// ApplyMutation re-executes a journaled operation during recovery replay,
// with the store clock pinned to the record's original timestamp. It must
// only be called before the store serves traffic (replay is single
// threaded), and with no journal attached. Errors mirror the live
// operation's errors — a replayed duplicate or illegal transition fails
// exactly as it did live, and the caller skips it.
func (s *Store) ApplyMutation(m Mutation) error {
	if !m.At.IsZero() {
		saved := s.now
		at := m.At
		s.now = func() time.Time { return at }
		defer func() { s.now = saved }()
	}
	switch m.Op {
	case OpPutFunction:
		if m.Function == nil {
			return fmt.Errorf("statestore: replay %s: missing function", m.Op)
		}
		return s.PutFunction(*m.Function)
	case OpUpsertEndpoint:
		if m.Endpoint == nil {
			return fmt.Errorf("statestore: replay %s: missing endpoint", m.Op)
		}
		return s.UpsertEndpoint(*m.Endpoint)
	case OpSetEndpointStatus:
		return s.SetEndpointStatus(m.EndpointID, m.Status)
	case OpCreateTask:
		if m.Task == nil {
			return fmt.Errorf("statestore: replay %s: missing task", m.Op)
		}
		return s.CreateTask(*m.Task)
	case OpCreateTasks:
		return s.CreateTasks(m.Tasks)
	case OpAdmitTasks:
		return s.AdmitTasks(m.Tasks, nil)
	case OpTransitionTask:
		if len(m.TaskIDs) != 1 {
			return fmt.Errorf("statestore: replay %s: want 1 task ID, got %d", m.Op, len(m.TaskIDs))
		}
		return s.TransitionTask(m.TaskIDs[0], m.State)
	case OpTransitionTasks:
		return s.TransitionTasks(m.TaskIDs, m.State)
	case OpCompleteTask:
		if m.Result == nil {
			return fmt.Errorf("statestore: replay %s: missing result", m.Op)
		}
		return s.CompleteTask(*m.Result)
	case OpCompleteTasks:
		errs := s.CompleteTasks(m.Results)
		for _, err := range errs {
			if err != nil {
				return err // first error, matching the live batch contract
			}
		}
		return nil
	case OpPurgeBefore:
		s.PurgeTasksBefore(m.Cutoff)
		return nil
	case OpPutIdempotency:
		if m.Idempotency == nil {
			return fmt.Errorf("statestore: replay %s: missing record", m.Op)
		}
		return s.PutIdempotency(m.Idempotency.Owner, m.Idempotency.Key, m.Idempotency.TaskIDs)
	case OpPurgeIdempotency:
		s.PurgeIdempotencyBefore(m.Cutoff)
		return nil
	case OpPutRoutingGroup:
		if m.RoutingGroup == nil {
			return fmt.Errorf("statestore: replay %s: missing routing group", m.Op)
		}
		return s.PutRoutingGroup(*m.RoutingGroup)
	default:
		return fmt.Errorf("statestore: replay: unknown op %q", m.Op)
	}
}
