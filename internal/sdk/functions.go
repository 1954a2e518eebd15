package sdk

import (
	"encoding/json"
	"sync"

	"globuscompute/internal/protocol"
	"globuscompute/internal/shellfn"
)

// PythonFunction references a worker-side entrypoint (the Go substitute for
// a pickled Python callable; see DESIGN.md). Submitting it serializes the
// entrypoint name and arguments into the task payload.
type PythonFunction struct {
	Entrypoint string

	reg registrationCache
}

// ShellFunction is the paper's §III-B task type: a command-line template
// with runtime controls. Placeholders like {message} are substituted from
// kwargs at submission time.
type ShellFunction struct {
	Command string
	// RunDir overrides the remote working directory.
	RunDir string
	// Sandbox runs each invocation in a unique task directory.
	Sandbox bool
	// WalltimeSec kills execution after this many seconds (rc 124).
	WalltimeSec float64
	// SnippetLines bounds captured output lines (default 1000).
	SnippetLines int
	// Env adds environment variables.
	Env map[string]string
	// Container runs the command inside the named image on endpoints with
	// a container runtime.
	Container string

	reg registrationCache
}

// NewShellFunction wraps a command template.
func NewShellFunction(command string) *ShellFunction {
	return &ShellFunction{Command: command}
}

// MPIFunction extends ShellFunction with an MPI launcher: the command runs
// once per rank under the executor's resource specification (§III-C).
type MPIFunction struct {
	ShellFunction
	// Launcher names the MPI launcher (mpiexec, srun); empty uses the
	// endpoint default.
	Launcher string
}

// NewMPIFunction wraps an MPI application command.
func NewMPIFunction(command string) *MPIFunction {
	return &MPIFunction{ShellFunction: ShellFunction{Command: command}}
}

// registrationCache lazily registers a function definition once per client,
// implementing the SDK's on-the-fly registration.
type registrationCache struct {
	mu  sync.Mutex
	ids map[*Client]protocol.UUID
}

// idFor returns c's ID for the function, registering it on a cache miss.
// definition builds the registered definition; a hit never calls it, so a
// Submit after the first builds nothing.
func (rc *registrationCache) idFor(c *Client, kind protocol.FunctionKind, definition func() any) (protocol.UUID, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.ids == nil {
		rc.ids = make(map[*Client]protocol.UUID)
	}
	if id, ok := rc.ids[c]; ok {
		return id, nil
	}
	def, err := json.Marshal(definition())
	if err != nil {
		return "", err
	}
	id, err := c.RegisterFunction(kind, def)
	if err != nil {
		return "", err
	}
	rc.ids[c] = id
	return id, nil
}

// ensureRegistered returns the function UUID, registering on first use.
func (p *PythonFunction) ensureRegistered(c *Client) (protocol.UUID, error) {
	return p.reg.idFor(c, protocol.KindPython, func() any {
		return map[string]string{"entrypoint": p.Entrypoint}
	})
}

func (s *ShellFunction) ensureRegistered(c *Client) (protocol.UUID, error) {
	return s.reg.idFor(c, protocol.KindShell, func() any {
		return map[string]any{"command_template": s.Command, "sandbox": s.Sandbox}
	})
}

func (m *MPIFunction) ensureRegistered(c *Client) (protocol.UUID, error) {
	return m.reg.idFor(c, protocol.KindMPI, func() any {
		return map[string]any{"command_template": m.Command, "launcher": m.Launcher}
	})
}

// payload builders

func (p *PythonFunction) payload(args []any, kwargs map[string]any) ([]byte, error) {
	spec := protocol.PythonSpec{Entrypoint: p.Entrypoint}
	for _, a := range args {
		b, err := json.Marshal(a)
		if err != nil {
			return nil, err
		}
		spec.Args = append(spec.Args, b)
	}
	if len(kwargs) > 0 {
		spec.Kwargs = make(map[string]json.RawMessage, len(kwargs))
		for k, v := range kwargs {
			b, err := json.Marshal(v)
			if err != nil {
				return nil, err
			}
			spec.Kwargs[k] = b
		}
	}
	return protocol.EncodePythonSpec(spec), nil
}

// shellSpec renders the command template with kwargs into a ShellSpec.
func (s *ShellFunction) shellSpec(kwargs map[string]string) (protocol.ShellSpec, error) {
	cmd, err := shellfn.FormatCommand(s.Command, kwargs)
	if err != nil {
		return protocol.ShellSpec{}, err
	}
	return protocol.ShellSpec{
		Command:      cmd,
		RunDir:       s.RunDir,
		Sandbox:      s.Sandbox,
		WalltimeSec:  s.WalltimeSec,
		SnippetLines: s.SnippetLines,
		Container:    s.Container,
		Env:          s.Env,
	}, nil
}

func (s *ShellFunction) payload(kwargs map[string]string) ([]byte, error) {
	spec, err := s.shellSpec(kwargs)
	if err != nil {
		return nil, err
	}
	return protocol.EncodePayload(spec)
}

func (m *MPIFunction) payload(kwargs map[string]string) ([]byte, error) {
	spec, err := m.shellSpec(kwargs)
	if err != nil {
		return nil, err
	}
	spec.Launcher = m.Launcher
	return protocol.EncodePayload(spec)
}
