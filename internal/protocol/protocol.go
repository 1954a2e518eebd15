// Package protocol defines the message types and wire framing shared by the
// Globus Compute web service, message broker, endpoint agents, and the
// pilot-job engine components (interchange, managers, workers).
//
// The real system uses AMQPS between endpoints and the cloud and ZeroMQ
// inside the endpoint; here both layers speak the same length-prefixed
// binary framing over TCP (frame.go, binframe.go).
package protocol

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"globuscompute/internal/trace"
)

// UUID is a 128-bit random identifier rendered in canonical 8-4-4-4-12 form.
// Functions, tasks, endpoints, and batch jobs are all identified by UUIDs,
// matching the immutable-identifier model of the hosted service.
type UUID string

// NewUUID returns a fresh random (version 4 style) identifier.
func NewUUID() UUID {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("protocol: rand.Read failed: " + err.Error())
	}
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	s := hex.EncodeToString(b[:])
	return UUID(s[0:8] + "-" + s[8:12] + "-" + s[12:16] + "-" + s[16:20] + "-" + s[20:32])
}

// Valid reports whether u looks like a canonical UUID: 8-4-4-4-12
// lowercase hex digits.
func (u UUID) Valid() bool {
	_, ok := packUUID(u)
	return ok
}

// FunctionKind distinguishes the three task types the paper defines.
type FunctionKind string

const (
	// KindPython models a plain registered function: the payload names a
	// worker-side entrypoint plus JSON-encoded arguments. (Substitute for
	// pickled Python callables; see DESIGN.md.)
	KindPython FunctionKind = "python"
	// KindShell is a ShellFunction: a command-line template executed by a
	// worker with sandboxing and walltime support.
	KindShell FunctionKind = "shell"
	// KindMPI is an MPIFunction: a ShellFunction prefixed with an MPI
	// launcher and bound to a resource specification.
	KindMPI FunctionKind = "mpi"
)

// TaskState enumerates the lifecycle states tracked by the web service.
type TaskState string

const (
	StateReceived  TaskState = "received"  // accepted by the web service
	StateWaiting   TaskState = "waiting"   // buffered; endpoint offline or queue backlog
	StateDelivered TaskState = "delivered" // handed to the endpoint task queue consumer
	StateRunning   TaskState = "running"   // executing on a worker
	StateSuccess   TaskState = "success"   // result available
	StateFailed    TaskState = "failed"    // exception recorded
	StateCancelled TaskState = "cancelled" // cancelled before completion
)

// Terminal reports whether s is a terminal state.
func (s TaskState) Terminal() bool {
	switch s {
	case StateSuccess, StateFailed, StateCancelled:
		return true
	}
	return false
}

// ResourceSpec mirrors the Parsl resource specification used by
// MPIFunctions: number of nodes, ranks per node, and total ranks. A zero
// value means "unspecified"; Normalize derives missing fields.
type ResourceSpec struct {
	NumNodes     int `json:"num_nodes,omitempty"`
	RanksPerNode int `json:"ranks_per_node,omitempty"`
	NumRanks     int `json:"num_ranks,omitempty"`
}

// IsZero reports whether no resource requirements were specified.
func (r ResourceSpec) IsZero() bool {
	return r.NumNodes == 0 && r.RanksPerNode == 0 && r.NumRanks == 0
}

// Normalize fills derivable fields and validates consistency. It returns the
// completed spec. Rules follow Parsl: ranks = nodes * ranks_per_node when
// unset; when all three are set they must agree.
func (r ResourceSpec) Normalize() (ResourceSpec, error) {
	n := r
	if n.NumNodes < 0 || n.RanksPerNode < 0 || n.NumRanks < 0 {
		return n, fmt.Errorf("protocol: negative resource specification %+v", r)
	}
	if n.NumNodes == 0 {
		n.NumNodes = 1
	}
	if n.RanksPerNode == 0 && n.NumRanks == 0 {
		n.RanksPerNode = 1
	}
	if n.NumRanks == 0 {
		n.NumRanks = n.NumNodes * n.RanksPerNode
	}
	if n.RanksPerNode == 0 {
		if n.NumRanks%n.NumNodes != 0 {
			return n, fmt.Errorf("protocol: num_ranks %d not divisible across %d nodes", n.NumRanks, n.NumNodes)
		}
		n.RanksPerNode = n.NumRanks / n.NumNodes
	}
	if n.NumNodes*n.RanksPerNode != n.NumRanks {
		return n, fmt.Errorf("protocol: inconsistent resource spec: %d nodes x %d ranks/node != %d ranks",
			n.NumNodes, n.RanksPerNode, n.NumRanks)
	}
	return n, nil
}

// Task is the unit of work that flows from the web service through the
// per-endpoint task queue to a worker.
type Task struct {
	ID         UUID         `json:"task_id"`
	FunctionID UUID         `json:"function_id"`
	EndpointID UUID         `json:"endpoint_id"`
	Kind       FunctionKind `json:"kind"`
	// Payload carries the serialized invocation: entrypoint+args for
	// python-kind, rendered command line and options for shell/MPI kinds.
	Payload []byte `json:"payload"`
	// PayloadRef, when set, names an object-store key holding the payload
	// (used when the inline payload would exceed the service threshold).
	PayloadRef string       `json:"payload_ref,omitempty"`
	Resources  ResourceSpec `json:"resources,omitempty"`
	// UserIdentity is the submitting user's identity username (for MEP
	// identity mapping and audit logging).
	UserIdentity string `json:"user_identity,omitempty"`
	// GroupID ties the task to the submitting executor's task group so
	// results can be streamed back over the group result queue.
	GroupID UUID `json:"group_id,omitempty"`
	// RoutingGroup records the routing-group UUID the task was submitted
	// through when placement (rather than the client) chose EndpointID;
	// empty for direct submits.
	RoutingGroup UUID `json:"routing_group,omitempty"`
	// Rerouted counts placement retries before EndpointID accepted the task
	// (first-choice members that were shedding when picked).
	Rerouted  int       `json:"rerouted,omitempty"`
	Submitted time.Time `json:"submitted"`
	// Attempts counts delivery/execution attempts consumed so far. It rides
	// on the task across requeues (engine interchange, broker redelivery of
	// the engine's making) so a poison task can be dead-lettered after a
	// bounded number of tries instead of cycling forever.
	Attempts int `json:"attempts,omitempty"`
	// Trace carries the task's distributed-trace context across process
	// boundaries; each component continues the trace by starting child
	// spans off it. Omitted when tracing is disabled.
	Trace *trace.Context `json:"trace,omitempty"`
}

// Result is the record a worker produces for a completed task.
type Result struct {
	TaskID UUID      `json:"task_id"`
	State  TaskState `json:"state"`
	Output []byte    `json:"output,omitempty"`
	// OutputRef names an object-store key when the output exceeds the
	// inline threshold.
	OutputRef string `json:"output_ref,omitempty"`
	Error     string `json:"error,omitempty"`
	// Execution metadata, reported for accounting and for the benchmark
	// harness.
	EndpointID  UUID          `json:"endpoint_id"`
	WorkerID    string        `json:"worker_id,omitempty"`
	Started     time.Time     `json:"started"`
	Completed   time.Time     `json:"completed"`
	ExecutionMS float64       `json:"execution_ms"`
	QueueDelay  time.Duration `json:"queue_delay,omitempty"`
	// DeadLettered marks a synthetic failure emitted after the task
	// exhausted its attempt budget (the poison-task escape hatch); the web
	// service counts these separately from ordinary execution failures.
	DeadLettered bool `json:"dead_lettered,omitempty"`
	// Trace continues the submitting task's trace through the result path
	// (worker -> broker -> result processor -> client future).
	Trace *trace.Context `json:"trace,omitempty"`
}

// ShellSpec is the payload body for KindShell and KindMPI tasks.
type ShellSpec struct {
	// Command is the command-line template; {placeholders} have already
	// been substituted by the SDK at submit time.
	Command string `json:"command"`
	// RunDir overrides the working directory (empty = endpoint default).
	RunDir string `json:"run_dir,omitempty"`
	// Sandbox requests a unique per-task working directory.
	Sandbox bool `json:"sandbox,omitempty"`
	// WalltimeSec terminates execution after this many seconds; the return
	// code is then 124 as with coreutils timeout.
	WalltimeSec float64 `json:"walltime_sec,omitempty"`
	// SnippetLines bounds captured stdout/stderr lines (default 1000).
	SnippetLines int `json:"snippet_lines,omitempty"`
	// Launcher, for MPI tasks, names the launcher binary (mpiexec, srun).
	Launcher string `json:"launcher,omitempty"`
	// Container, when set, runs the command inside the named container
	// image (the endpoint must have a container runtime configured).
	Container string `json:"container,omitempty"`
	// Env passes additional environment variables to the command.
	Env map[string]string `json:"env,omitempty"`
}

// ShellResult mirrors the SDK's ShellResult: return code plus output
// snippets from the executed command line.
type ShellResult struct {
	ReturnCode int    `json:"returncode"`
	Cmd        string `json:"cmd"`
	Stdout     string `json:"stdout"`
	Stderr     string `json:"stderr"`
	// Truncated indicates the snippets were clipped to the last N lines.
	Truncated bool `json:"truncated,omitempty"`
}

// PythonSpec is the payload body for KindPython tasks: an entrypoint name
// resolvable in the worker-side callable registry plus JSON-encoded
// positional and keyword arguments. It travels in the binary envelope
// EncodePythonSpec writes or as its own JSON; DecodePythonSpec reads both.
type PythonSpec struct {
	Entrypoint string                     `json:"entrypoint"`
	Args       []json.RawMessage          `json:"args,omitempty"`
	Kwargs     map[string]json.RawMessage `json:"kwargs,omitempty"`
}

// EncodePayload marshals a payload body for embedding in a Task.
func EncodePayload(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("protocol: encode payload: %w", err)
	}
	return b, nil
}

// DecodePayload unmarshals a task payload into v.
func DecodePayload(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("protocol: decode payload: %w", err)
	}
	return nil
}
