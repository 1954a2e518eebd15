package auth

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func alice() Identity {
	return Identity{Username: "alice@uchicago.edu", Provider: "uchicago"}
}

func TestIssueIntrospect(t *testing.T) {
	s := NewService()
	tok, err := s.Issue(alice(), []string{ScopeCompute}, time.Minute, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tok.Value, "gc_") {
		t.Errorf("token value %q", tok.Value)
	}
	got, err := s.Introspect(tok.Value)
	if err != nil {
		t.Fatal(err)
	}
	if got.Identity.Username != "alice@uchicago.edu" {
		t.Errorf("identity = %+v", got.Identity)
	}
	if got.Identity.Subject == "" {
		t.Error("subject not assigned")
	}
	if !got.HasScope(ScopeCompute) {
		t.Error("scope missing")
	}
}

func TestIntrospectUnknown(t *testing.T) {
	s := NewService()
	if _, err := s.Introspect("gc_bogus"); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("err = %v", err)
	}
}

func TestTokenExpiry(t *testing.T) {
	s := NewService()
	base := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return base }
	tok, _ := s.Issue(alice(), nil, time.Minute, time.Time{})
	s.now = func() time.Time { return base.Add(2 * time.Minute) }
	if _, err := s.Introspect(tok.Value); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("expired token introspected: %v", err)
	}
}

func TestRevoke(t *testing.T) {
	s := NewService()
	tok, _ := s.Issue(alice(), nil, time.Hour, time.Time{})
	s.Revoke(tok.Value)
	if _, err := s.Introspect(tok.Value); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("revoked token introspected: %v", err)
	}
	s.Revoke("gc_missing") // no panic
}

func TestAuthorizeScope(t *testing.T) {
	s := NewService()
	tok, _ := s.Issue(alice(), []string{ScopeCompute}, time.Hour, time.Time{})
	if _, err := s.Authorize(tok.Value, ScopeCompute); err != nil {
		t.Errorf("Authorize = %v", err)
	}
	if _, err := s.Authorize(tok.Value, ScopeManage); !errors.Is(err, ErrMissingScope) {
		t.Errorf("Authorize wrong scope = %v", err)
	}
}

func TestBadIdentityRejected(t *testing.T) {
	s := NewService()
	for _, name := range []string{"", "nodomain", "@domain.only"} {
		if _, err := s.Issue(Identity{Username: name}, nil, time.Hour, time.Time{}); !errors.Is(err, ErrBadIdentity) {
			t.Errorf("Issue(%q) = %v, want ErrBadIdentity", name, err)
		}
	}
}

func TestIdentityDomain(t *testing.T) {
	if d := alice().Domain(); d != "uchicago.edu" {
		t.Errorf("Domain = %q", d)
	}
	if d := (Identity{Username: "plain"}).Domain(); d != "" {
		t.Errorf("Domain of bare username = %q", d)
	}
}

func TestPolicyAllowedDomains(t *testing.T) {
	p := Policy{Name: "uc-only", AllowedDomains: []string{"uchicago.edu"}}
	now := time.Now()
	ok := Token{Identity: alice(), AuthTime: now}
	if err := p.Evaluate(ok, now); err != nil {
		t.Errorf("allowed domain rejected: %v", err)
	}
	bad := Token{Identity: Identity{Username: "eve@evil.example"}, AuthTime: now}
	if err := p.Evaluate(bad, now); !errors.Is(err, ErrPolicyDenied) {
		t.Errorf("disallowed domain passed: %v", err)
	}
}

func TestPolicyExcludedDomains(t *testing.T) {
	p := Policy{Name: "no-anon", ExcludedDomains: []string{"anonymous.example"}}
	now := time.Now()
	bad := Token{Identity: Identity{Username: "x@anonymous.example"}, AuthTime: now}
	if err := p.Evaluate(bad, now); !errors.Is(err, ErrPolicyDenied) {
		t.Errorf("excluded domain passed: %v", err)
	}
	// Exclusion wins even when the domain is also in the allowlist.
	p2 := Policy{Name: "conflict", AllowedDomains: []string{"a.edu"}, ExcludedDomains: []string{"a.edu"}}
	tok := Token{Identity: Identity{Username: "u@a.edu"}, AuthTime: now}
	if err := p2.Evaluate(tok, now); !errors.Is(err, ErrPolicyDenied) {
		t.Errorf("exclusion did not dominate: %v", err)
	}
}

func TestPolicyRequiredProvider(t *testing.T) {
	p := Policy{Name: "idp", RequiredProvider: "uchicago"}
	now := time.Now()
	if err := p.Evaluate(Token{Identity: alice(), AuthTime: now}, now); err != nil {
		t.Errorf("matching provider rejected: %v", err)
	}
	other := Token{Identity: Identity{Username: "a@b.edu", Provider: "orcid"}, AuthTime: now}
	if err := p.Evaluate(other, now); !errors.Is(err, ErrPolicyDenied) {
		t.Errorf("wrong provider passed: %v", err)
	}
}

func TestPolicySessionAge(t *testing.T) {
	p := Policy{Name: "fresh", MaxSessionAge: time.Hour}
	now := time.Now()
	fresh := Token{Identity: alice(), AuthTime: now.Add(-30 * time.Minute)}
	if err := p.Evaluate(fresh, now); err != nil {
		t.Errorf("fresh session rejected: %v", err)
	}
	stale := Token{Identity: alice(), AuthTime: now.Add(-2 * time.Hour)}
	if err := p.Evaluate(stale, now); !errors.Is(err, ErrPolicyDenied) {
		t.Errorf("stale session passed: %v", err)
	}
}

func TestPolicyCaseInsensitiveDomains(t *testing.T) {
	p := Policy{Name: "ci", AllowedDomains: []string{"UChicago.EDU"}}
	now := time.Now()
	if err := p.Evaluate(Token{Identity: alice(), AuthTime: now}, now); err != nil {
		t.Errorf("case-insensitive match failed: %v", err)
	}
}

func TestServicePolicyRegistry(t *testing.T) {
	s := NewService()
	if err := s.RegisterPolicy(Policy{}); err == nil {
		t.Error("unnamed policy registered")
	}
	s.RegisterPolicy(Policy{Name: "uc", AllowedDomains: []string{"uchicago.edu"}})
	tok, _ := s.Issue(alice(), nil, time.Hour, time.Time{})
	claims, _ := s.Introspect(tok.Value)
	if err := s.EvaluatePolicy("uc", claims); err != nil {
		t.Errorf("EvaluatePolicy = %v", err)
	}
	if err := s.EvaluatePolicy("missing", claims); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("unknown policy = %v", err)
	}
	if err := s.EvaluatePolicy("", claims); err != nil {
		t.Errorf("empty policy name should pass: %v", err)
	}
}

func TestTokensAreUnique(t *testing.T) {
	s := NewService()
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		tok, err := s.Issue(alice(), nil, time.Hour, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if seen[tok.Value] {
			t.Fatal("duplicate token value")
		}
		seen[tok.Value] = true
	}
}
