package core

import (
	"fmt"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/idmap"
	"globuscompute/internal/mep"
	"globuscompute/internal/protocol"
	"globuscompute/internal/template"
	"globuscompute/internal/webservice"
)

// MEPOptions configures a multi-user endpoint deployment on the testbed.
type MEPOptions struct {
	Name  string
	Owner string
	// Mapper authorizes identities (required).
	Mapper idmap.Mapper
	// Template is the admin configuration template; empty selects
	// DefaultMEPTemplate. User values are validated by DefaultMEPSchema.
	Template string
	// IdleTimeout reaps idle user endpoints.
	IdleTimeout time.Duration
	// SandboxRoot hosts ShellFunction sandboxes in children.
	SandboxRoot string
}

// DefaultMEPTemplate mirrors the paper's Listing 9: fixed engine and
// partition, user-configurable block size, account, and walltime.
const DefaultMEPTemplate = `{
  "display_name": "SlurmHPC",
  "engine": {
    "type": "GlobusComputeEngine",
    "nodes_per_block": {{ NODES_PER_BLOCK }},
    "workers_per_node": {{ WORKERS_PER_NODE|default("2") }}
  },
  "provider": {
    "type": "SlurmProvider",
    "partition": "default",
    "account": "{{ ACCOUNT_ID }}",
    "walltime": "{{ WALLTIME|default("00:30:00") }}"
  }
}`

// DefaultMEPSchema validates the DefaultMEPTemplate's variables.
func DefaultMEPSchema() template.Schema {
	min, max := 1.0, 64.0
	return template.Schema{Properties: map[string]template.Property{
		"NODES_PER_BLOCK":  {Type: template.TypeInteger, Required: true, Minimum: &min, Maximum: &max},
		"WORKERS_PER_NODE": {Type: template.TypeInteger, Minimum: &min, Maximum: &max},
		"ACCOUNT_ID":       {Type: template.TypeString, Required: true, Pattern: `[A-Za-z0-9_-]+`},
		"WALLTIME":         {Type: template.TypeString, Pattern: `\d{2}:\d{2}:\d{2}`},
	}}
}

// StartMEP registers a multi-user endpoint and starts its manager. The
// spawner builds real user endpoint agents against the testbed's scheduler
// according to each rendered configuration.
func (tb *Testbed) StartMEP(opts MEPOptions) (protocol.UUID, *mep.Manager, error) {
	if opts.Mapper == nil {
		return "", nil, fmt.Errorf("core: MEP requires an identity mapper")
	}
	if opts.Template == "" {
		opts.Template = DefaultMEPTemplate
	}
	mepID, err := tb.Service.RegisterEndpoint(webservice.RegisterEndpointRequest{
		Name: opts.Name, Owner: opts.Owner, MultiUser: true,
	})
	if err != nil {
		return "", nil, err
	}
	mgr, err := mep.New(mep.Config{
		EndpointID:  mepID,
		Conn:        broker.LocalConn(tb.Broker),
		Mapper:      opts.Mapper,
		Template:    opts.Template,
		Schema:      DefaultMEPSchema(),
		IdleTimeout: opts.IdleTimeout,
		Spawn:       tb.mepSpawner(opts),
		Heartbeat: func(online bool) {
			_ = tb.Service.SetEndpointStatus(mepID, online)
		},
	})
	if err != nil {
		return "", nil, err
	}
	if err := mgr.Start(); err != nil {
		return "", nil, err
	}
	tb.meps = append(tb.meps, mgr)
	return mepID, mgr, nil
}

// mepSpawner builds user endpoint agents from rendered configurations by
// binding the shared spawner to the testbed's resources.
func (tb *Testbed) mepSpawner(opts MEPOptions) mep.SpawnFunc {
	return mep.NewAgentSpawner(mep.SpawnerDeps{
		Scheduler:   tb.Sched,
		Conn:        broker.LocalConn(tb.Broker),
		Objects:     tb.Objects,
		SandboxRoot: opts.SandboxRoot,
		Heartbeat:   tb.Service.RecordHeartbeat,
	})
}
