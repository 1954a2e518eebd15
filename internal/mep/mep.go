// Package mep implements the multi-user endpoint (paper §IV): a process
// manager installed by administrators that, on request from the web
// service, maps the requesting Globus identity to a local account, validates
// the user's configuration against the administrator's schema, renders the
// administrator's configuration template, and spawns a user endpoint under
// the mapped account. The MEP itself never executes tasks.
package mep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/idmap"
	"globuscompute/internal/metrics"
	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/template"
	"globuscompute/internal/webservice"
)

// Common errors.
var (
	ErrNotAuthorized = errors.New("mep: identity not authorized (no mapping)")
	ErrBadConfig     = errors.New("mep: user configuration rejected")
)

// SpawnRequest carries everything a spawner needs to start a user endpoint
// as the mapped local user.
type SpawnRequest struct {
	ChildEndpointID protocol.UUID
	// LocalUser is the mapped local account the endpoint runs as (the
	// fork/setuid/exec step of the real MEP).
	LocalUser string
	Identity  auth.Identity
	// RenderedConfig is the administrator template rendered with the
	// user's values.
	RenderedConfig string
	// UserConfig is the raw user-supplied configuration.
	UserConfig map[string]any
	ConfigHash string
}

// UserEndpoint is a spawned child endpoint process.
type UserEndpoint interface {
	// Stop terminates the endpoint.
	Stop()
	// LastActivity supports idle reaping.
	LastActivity() time.Time
	// Busy reports in-flight work (idle reaping defers to it).
	Busy() bool
}

// SpawnFunc starts a user endpoint for a request.
type SpawnFunc func(ctx context.Context, req SpawnRequest) (UserEndpoint, error)

// Config assembles a multi-user endpoint manager.
type Config struct {
	EndpointID protocol.UUID
	Conn       broker.Conn
	// Mapper translates Globus identities to local accounts; identities
	// with no mapping are rejected (access control).
	Mapper idmap.Mapper
	// Template is the administrator's endpoint configuration template
	// (mini-Jinja over JSON; paper Listing 9 uses Jinja over YAML).
	Template string
	// Schema validates user-supplied template values before rendering.
	Schema template.Schema
	// Spawn starts child endpoints.
	Spawn SpawnFunc
	// IdleTimeout reaps user endpoints with no activity (0 = never),
	// implementing "once the submitted tasks are completed, the user
	// endpoint is destroyed".
	IdleTimeout time.Duration
	// Heartbeat mirrors the single-user agent's status callback: online at
	// Start and every heartbeatInterval after, offline once at Stop.
	Heartbeat func(online bool)
}

// heartbeatInterval is the single-user agent's default cadence
// (endpoint.Config.HeartbeatInterval).
const heartbeatInterval = 5 * time.Second

// child tracks one spawned user endpoint.
type child struct {
	id        protocol.UUID
	localUser string
	hash      string
	ep        UserEndpoint
	started   time.Time
}

// Manager is a running multi-user endpoint.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	children map[protocol.UUID]*child
	started  bool
	stopped  bool

	sub  broker.Subscription
	done chan struct{}
	wg   sync.WaitGroup
	// heartbeatEvery is heartbeatInterval; a field so a test can shorten it.
	heartbeatEvery time.Duration

	Metrics *metrics.Registry
}

// New validates cfg and builds a manager.
func New(cfg Config) (*Manager, error) {
	if !cfg.EndpointID.Valid() {
		return nil, fmt.Errorf("mep: invalid endpoint ID %q", cfg.EndpointID)
	}
	if cfg.Conn == nil {
		return nil, errors.New("mep: broker connection required")
	}
	if cfg.Mapper == nil {
		return nil, errors.New("mep: identity mapper required")
	}
	if cfg.Spawn == nil {
		return nil, errors.New("mep: spawn function required")
	}
	if cfg.Template == "" {
		return nil, errors.New("mep: configuration template required")
	}
	return &Manager{
		cfg:      cfg,
		children: make(map[protocol.UUID]*child),
		done:     make(chan struct{}),
		Metrics:  metrics.NewRegistry(),

		heartbeatEvery: heartbeatInterval,
	}, nil
}

// Start begins consuming start-endpoint commands.
func (m *Manager) Start() error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return errors.New("mep: already started")
	}
	m.started = true
	m.mu.Unlock()
	sub, err := m.cfg.Conn.Subscribe(webservice.CommandQueue(m.cfg.EndpointID), 16)
	if err != nil {
		return fmt.Errorf("mep: consume command queue: %w", err)
	}
	m.sub = sub
	m.wg.Add(1)
	go m.commandLoop()
	if m.cfg.IdleTimeout > 0 {
		m.wg.Add(1)
		go m.reaperLoop()
	}
	if m.cfg.Heartbeat != nil {
		m.cfg.Heartbeat(true)
		m.wg.Add(1)
		go m.heartbeatLoop()
	}
	return nil
}

// heartbeatLoop keeps the manager online in the service's eyes: a watchdog
// marks an endpoint offline once its heartbeats stop.
func (m *Manager) heartbeatLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.heartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
			m.cfg.Heartbeat(true)
		}
	}
}

func (m *Manager) commandLoop() {
	defer m.wg.Done()
	mlog := obs.Component("mep").WithEndpoint(string(m.cfg.EndpointID))
	for msg := range m.sub.Messages() {
		var cmd webservice.StartEndpointCommand
		if err := json.Unmarshal(msg.Body, &cmd); err != nil {
			mlog.Warn("malformed command", "error", err)
			_ = m.sub.Ack(msg.Tag)
			continue
		}
		if err := m.handleStart(cmd); err != nil {
			mlog.Error("start endpoint",
				"child_endpoint", string(cmd.ChildEndpointID),
				"user", cmd.UserIdentity.Username, "error", err)
			m.Metrics.Counter("start_failures").Inc()
		}
		_ = m.sub.Ack(msg.Tag)
	}
}

// handleStart performs the identity-map -> validate -> render -> spawn
// pipeline for one start command.
func (m *Manager) handleStart(cmd webservice.StartEndpointCommand) error {
	m.mu.Lock()
	if _, exists := m.children[cmd.ChildEndpointID]; exists {
		m.mu.Unlock()
		return nil // duplicate command; endpoint already running
	}
	m.mu.Unlock()

	localUser, err := m.cfg.Mapper.Map(cmd.UserIdentity)
	if err != nil {
		if errors.Is(err, idmap.ErrNoMapping) {
			m.Metrics.Counter("identity_rejected").Inc()
			return fmt.Errorf("%w: %s", ErrNotAuthorized, cmd.UserIdentity.Username)
		}
		return err
	}
	var userConfig map[string]any
	if err := json.Unmarshal(cmd.UserConfig, &userConfig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if err := m.cfg.Schema.Validate(userConfig); err != nil {
		m.Metrics.Counter("config_rejected").Inc()
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	rendered, err := template.Render(m.cfg.Template, userConfig)
	if err != nil {
		m.Metrics.Counter("config_rejected").Inc()
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}

	req := SpawnRequest{
		ChildEndpointID: cmd.ChildEndpointID,
		LocalUser:       localUser,
		Identity:        cmd.UserIdentity,
		RenderedConfig:  rendered,
		UserConfig:      userConfig,
		ConfigHash:      cmd.ConfigHash,
	}
	ep, err := m.cfg.Spawn(context.Background(), req)
	if err != nil {
		return fmt.Errorf("mep: spawn: %w", err)
	}
	m.mu.Lock()
	m.children[cmd.ChildEndpointID] = &child{
		id: cmd.ChildEndpointID, localUser: localUser,
		hash: cmd.ConfigHash, ep: ep, started: time.Now(),
	}
	m.mu.Unlock()
	m.Metrics.Counter("children_spawned").Inc()
	return nil
}

// reaperLoop destroys idle user endpoints.
func (m *Manager) reaperLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.IdleTimeout / 2)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-m.cfg.IdleTimeout)
		var reap []*child
		m.mu.Lock()
		for id, c := range m.children {
			if !c.ep.Busy() && c.ep.LastActivity().Before(cutoff) {
				reap = append(reap, c)
				delete(m.children, id)
			}
		}
		m.mu.Unlock()
		for _, c := range reap {
			c.ep.Stop()
			m.Metrics.Counter("children_reaped").Inc()
		}
	}
}

// Stats is a snapshot of the manager.
type Stats struct {
	ActiveChildren   int
	ChildrenSpawned  int64
	ChildrenReaped   int64
	IdentityRejected int64
	ConfigRejected   int64
	// ByLocalUser counts active children per mapped account.
	ByLocalUser map[string]int
}

// Stats reports manager state.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		ActiveChildren:   len(m.children),
		ChildrenSpawned:  m.Metrics.Counter("children_spawned").Value(),
		ChildrenReaped:   m.Metrics.Counter("children_reaped").Value(),
		IdentityRejected: m.Metrics.Counter("identity_rejected").Value(),
		ConfigRejected:   m.Metrics.Counter("config_rejected").Value(),
		ByLocalUser:      make(map[string]int),
	}
	for _, c := range m.children {
		s.ByLocalUser[c.localUser]++
	}
	return s
}

// Children lists active child endpoint IDs.
func (m *Manager) Children() []protocol.UUID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]protocol.UUID, 0, len(m.children))
	for id := range m.children {
		out = append(out, id)
	}
	return out
}

// Stop terminates the manager and all user endpoints.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.started || m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	children := make([]*child, 0, len(m.children))
	for _, c := range m.children {
		children = append(children, c)
	}
	m.children = make(map[protocol.UUID]*child)
	m.mu.Unlock()

	close(m.done)
	if m.sub != nil {
		_ = m.sub.Cancel()
	}
	for _, c := range children {
		c.ep.Stop()
	}
	m.wg.Wait()
	if m.cfg.Heartbeat != nil {
		m.cfg.Heartbeat(false)
	}
}
