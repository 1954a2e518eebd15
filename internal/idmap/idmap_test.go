package idmap

import (
	"errors"
	"testing"

	"globuscompute/internal/auth"
)

func ident(username string) auth.Identity {
	return auth.Identity{Username: username, Provider: "test-idp", Subject: "01234567-89ab-4def-8123-456789abcdef"}
}

func TestListing8Mapping(t *testing.T) {
	// The paper's Listing 8: any @uchicago.edu identity maps to the local
	// part of the username.
	m, err := NewExpressionMapper([]Rule{{
		Source: "{username}",
		Match:  `(.*)@uchicago\.edu`,
		Output: "{0}",
	}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Map(ident("alice@uchicago.edu"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "alice" {
		t.Errorf("mapped to %q", got)
	}
	if _, err := m.Map(ident("bob@anl.gov")); !errors.Is(err, ErrNoMapping) {
		t.Errorf("foreign domain mapped: %v", err)
	}
}

func TestRuleOrderFirstWins(t *testing.T) {
	m, err := NewExpressionMapper([]Rule{
		{Match: `admin@site\.edu`, Output: "root"},
		{Match: `(.*)@site\.edu`, Output: "{0}"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Map(ident("admin@site.edu")); got != "root" {
		t.Errorf("admin mapped to %q", got)
	}
	if got, _ := m.Map(ident("carol@site.edu")); got != "carol" {
		t.Errorf("carol mapped to %q", got)
	}
}

func TestIgnoreCase(t *testing.T) {
	m, err := NewExpressionMapper([]Rule{{
		Match: `(.*)@Site\.EDU`, Output: "{0}", IgnoreCase: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m.Map(ident("Dave@site.edu")); err != nil || got != "Dave" {
		t.Errorf("got %q, %v", got, err)
	}
}

func TestSourceFields(t *testing.T) {
	m, err := NewExpressionMapper([]Rule{{
		Source: "{idp}:{domain}",
		Match:  `test-idp:(anl\.gov)`,
		Output: "site-{0}",
	}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Map(ident("eve@anl.gov"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "site-anl.gov" {
		t.Errorf("got %q", got)
	}
}

func TestMatchIsAnchored(t *testing.T) {
	m, _ := NewExpressionMapper([]Rule{{Match: `(\w+)@x\.edu`, Output: "{0}"}})
	if _, err := m.Map(ident("evil@x.edu.attacker.com")); !errors.Is(err, ErrNoMapping) {
		t.Errorf("suffix-extended domain mapped: %v", err)
	}
}

func TestMultipleGroups(t *testing.T) {
	m, _ := NewExpressionMapper([]Rule{{
		Match:  `(\w+)\.(\w+)@dept\.edu`,
		Output: "{1}_{0}",
	}})
	got, err := m.Map(ident("jane.doe@dept.edu"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "doe_jane" {
		t.Errorf("got %q", got)
	}
}

func TestRuleValidation(t *testing.T) {
	cases := [][]Rule{
		nil,
		{{Output: "x"}},                   // no match
		{{Match: "x"}},                    // no output
		{{Match: "([bad", Output: "{0}"}}, // bad regex
	}
	for i, rules := range cases {
		if _, err := NewExpressionMapper(rules); !errors.Is(err, ErrBadRule) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
}

func TestOutOfRangeGroupSkips(t *testing.T) {
	m, _ := NewExpressionMapper([]Rule{
		{Match: `nobody@x\.edu`, Output: "{5}"}, // group 5 doesn't exist -> empty -> skip
		{Match: `(.*)@x\.edu`, Output: "{0}"},
	})
	got, err := m.Map(ident("nobody@x.edu"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "nobody" {
		t.Errorf("got %q (fallthrough expected)", got)
	}
}

func TestParseRulesListing8Document(t *testing.T) {
	doc := `{
	  "DATA_TYPE": "expression_identity_mapping#1.0.0",
	  "mappings": [
	    {"source": "{username}", "match": "(.*)@uchicago\\.edu", "output": "{0}"}
	  ]
	}`
	rules, err := ParseRules([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Match != `(.*)@uchicago\.edu` {
		t.Errorf("rules = %+v", rules)
	}
}

func TestParseRulesBareArray(t *testing.T) {
	rules, err := ParseRules([]byte(`[{"match": "x", "output": "y"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Errorf("rules = %+v", rules)
	}
	if _, err := ParseRules([]byte(`{invalid`)); !errors.Is(err, ErrBadRule) {
		t.Errorf("garbage parsed: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	m, _ := NewExpressionMapper([]Rule{{Match: `(.*)@d\.edu`, Output: "{0}"}})
	for i := 0; i < 100; i++ {
		got, err := m.Map(ident("same@d.edu"))
		if err != nil || got != "same" {
			t.Fatalf("iteration %d: %q, %v", i, got, err)
		}
	}
}
