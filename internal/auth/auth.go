// Package auth is the Globus Auth substitute: an OAuth2-style token service
// with identities, scopes, introspection, and the authentication policies
// that the paper's multi-user endpoints enforce at the web-service layer
// (allowed/excluded identity domains, required identity provider, and
// maximum session age).
package auth

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/protocol"
)

// Common errors.
var (
	ErrInvalidToken  = errors.New("auth: invalid or expired token")
	ErrPolicyDenied  = errors.New("auth: denied by authentication policy")
	ErrUnknownPolicy = errors.New("auth: unknown policy")
	ErrMissingScope  = errors.New("auth: token missing required scope")
	ErrBadIdentity   = errors.New("auth: malformed identity username")
)

// Identity is a Globus-style identity: username "user@domain" plus the
// identity provider that authenticated it.
type Identity struct {
	// Subject is the stable identity UUID.
	Subject protocol.UUID `json:"sub"`
	// Username is the identity username, e.g. "alice@uchicago.edu".
	Username string `json:"username"`
	// Provider names the identity provider that vouched for this identity.
	Provider string `json:"idp"`
}

// Domain returns the part after '@' in the username.
func (id Identity) Domain() string {
	_, domain, ok := strings.Cut(id.Username, "@")
	if !ok {
		return ""
	}
	return domain
}

// Validate checks the identity is well formed.
func (id Identity) Validate() error {
	if id.Domain() == "" || strings.HasPrefix(id.Username, "@") {
		return fmt.Errorf("%w: %q", ErrBadIdentity, id.Username)
	}
	return nil
}

// Token is an issued bearer token with its claims.
type Token struct {
	Value    string   `json:"value"`
	Identity Identity `json:"identity"`
	Scopes   []string `json:"scopes"`
	// AuthTime records when the user authenticated (for session-age
	// policies); IssuedAt when this token was minted.
	AuthTime time.Time `json:"auth_time"`
	IssuedAt time.Time `json:"issued_at"`
	Expires  time.Time `json:"expires"`
	revoked  bool
}

// HasScope reports whether the token carries scope.
func (t Token) HasScope(scope string) bool {
	for _, s := range t.Scopes {
		if s == scope {
			return true
		}
	}
	return false
}

// Standard scopes used by the compute service.
const (
	ScopeCompute = "compute.api"
	ScopeManage  = "compute.manage_endpoints"
)

// Service issues and introspects tokens. Safe for concurrent use.
type Service struct {
	mu       sync.RWMutex
	tokens   map[string]*Token
	policies map[string]Policy
	now      func() time.Time
	// DefaultTTL applies when Issue is called with ttl <= 0.
	DefaultTTL time.Duration
}

// NewService returns an empty auth service.
func NewService() *Service {
	return &Service{
		tokens:     make(map[string]*Token),
		policies:   make(map[string]Policy),
		now:        time.Now,
		DefaultTTL: time.Hour,
	}
}

// Issue mints a bearer token for the identity. authTime conveys when the
// user actually authenticated with their provider; zero means "now".
func (s *Service) Issue(id Identity, scopes []string, ttl time.Duration, authTime time.Time) (Token, error) {
	if err := id.Validate(); err != nil {
		return Token{}, err
	}
	if id.Subject == "" {
		id.Subject = protocol.NewUUID()
	}
	if ttl <= 0 {
		ttl = s.DefaultTTL
	}
	var raw [24]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return Token{}, fmt.Errorf("auth: token entropy: %w", err)
	}
	now := s.now()
	if authTime.IsZero() {
		authTime = now
	}
	tok := Token{
		Value:    "gc_" + hex.EncodeToString(raw[:]),
		Identity: id,
		Scopes:   append([]string(nil), scopes...),
		AuthTime: authTime,
		IssuedAt: now,
		Expires:  now.Add(ttl),
	}
	s.mu.Lock()
	s.tokens[tok.Value] = &tok
	s.mu.Unlock()
	return tok, nil
}

// Introspect validates a bearer token value and returns its claims.
func (s *Service) Introspect(value string) (Token, error) {
	s.mu.RLock()
	tok, ok := s.tokens[value]
	s.mu.RUnlock()
	if !ok || tok.revoked {
		return Token{}, ErrInvalidToken
	}
	if s.now().After(tok.Expires) {
		return Token{}, fmt.Errorf("%w: expired at %s", ErrInvalidToken, tok.Expires)
	}
	return *tok, nil
}

// Authorize introspects and additionally requires a scope.
func (s *Service) Authorize(value, scope string) (Token, error) {
	tok, err := s.Introspect(value)
	if err != nil {
		return Token{}, err
	}
	if !tok.HasScope(scope) {
		return Token{}, fmt.Errorf("%w: %q", ErrMissingScope, scope)
	}
	return tok, nil
}

// Revoke invalidates a token.
func (s *Service) Revoke(value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tok, ok := s.tokens[value]; ok {
		tok.revoked = true
	}
}

// Policy is an authentication policy evaluated by the web service before a
// request reaches an endpoint, mirroring the cloud-enforced policies of
// §IV-A5: domain inclusion/exclusion, a required identity provider, and a
// bound on how long ago the user authenticated.
type Policy struct {
	Name string `json:"name"`
	// AllowedDomains, when non-empty, is an allowlist of identity domains.
	AllowedDomains []string `json:"allowed_domains,omitempty"`
	// ExcludedDomains always deny.
	ExcludedDomains []string `json:"excluded_domains,omitempty"`
	// RequiredProvider, when set, demands authentication via this IdP.
	RequiredProvider string `json:"required_provider,omitempty"`
	// MaxSessionAge, when positive, requires AuthTime within this window.
	MaxSessionAge time.Duration `json:"max_session_age,omitempty"`
}

// Evaluate applies the policy to a token's claims at time now.
func (p Policy) Evaluate(tok Token, now time.Time) error {
	domain := tok.Identity.Domain()
	for _, d := range p.ExcludedDomains {
		if strings.EqualFold(domain, d) {
			return fmt.Errorf("%w %q: domain %q excluded", ErrPolicyDenied, p.Name, domain)
		}
	}
	if len(p.AllowedDomains) > 0 {
		ok := false
		for _, d := range p.AllowedDomains {
			if strings.EqualFold(domain, d) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("%w %q: domain %q not allowed", ErrPolicyDenied, p.Name, domain)
		}
	}
	if p.RequiredProvider != "" && !strings.EqualFold(tok.Identity.Provider, p.RequiredProvider) {
		return fmt.Errorf("%w %q: identity provider %q required", ErrPolicyDenied, p.Name, p.RequiredProvider)
	}
	if p.MaxSessionAge > 0 && now.Sub(tok.AuthTime) > p.MaxSessionAge {
		return fmt.Errorf("%w %q: authentication older than %s", ErrPolicyDenied, p.Name, p.MaxSessionAge)
	}
	return nil
}

// RegisterPolicy stores a named policy.
func (s *Service) RegisterPolicy(p Policy) error {
	if p.Name == "" {
		return errors.New("auth: policy requires a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policies[p.Name] = p
	return nil
}

// EvaluatePolicy looks up a named policy and applies it to the token.
// An empty policy name means "no policy" and always passes.
func (s *Service) EvaluatePolicy(name string, tok Token) error {
	if name == "" {
		return nil
	}
	s.mu.RLock()
	p, ok := s.policies[name]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPolicy, name)
	}
	return p.Evaluate(tok, s.now())
}
