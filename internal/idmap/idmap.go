// Package idmap implements the identity-mapping logic multi-user endpoints
// use to translate a Globus identity into a local user account, following
// the Globus Connect Server mapping model the paper describes: ordered
// expression rules (source template, regex match, group-substitution
// output, ignore-case option).
package idmap

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strings"

	"globuscompute/internal/auth"
)

// Common errors.
var (
	ErrNoMapping = errors.New("idmap: no mapping for identity")
	ErrBadRule   = errors.New("idmap: invalid mapping rule")
)

// Mapper resolves an identity to a local account name.
type Mapper interface {
	Map(id auth.Identity) (string, error)
}

// Rule is one expression mapping, mirroring the JSON document in the
// paper's Listing 8: a source template over identity fields, a regex the
// expanded source must match, and an output template with {0},{1},...
// references to regex capture groups.
type Rule struct {
	// Source is a template over identity fields: {username}, {domain},
	// {sub}, {idp}. Default "{username}".
	Source string `json:"source"`
	// Match is the regular expression applied to the expanded source; it
	// is anchored to the full string.
	Match string `json:"match"`
	// Output is the result template; {N} references match group N (0 is
	// the first capture group, matching the Globus convention).
	Output string `json:"output"`
	// IgnoreCase applies the match case-insensitively.
	IgnoreCase bool `json:"ignore_case,omitempty"`
}

// ExpressionMapper applies rules in order; the first rule whose match
// succeeds produces the mapping.
type ExpressionMapper struct {
	rules    []Rule
	compiled []*regexp.Regexp
}

// NewExpressionMapper validates and compiles the rules.
func NewExpressionMapper(rules []Rule) (*ExpressionMapper, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("%w: no rules", ErrBadRule)
	}
	m := &ExpressionMapper{rules: make([]Rule, len(rules)), compiled: make([]*regexp.Regexp, len(rules))}
	for i, r := range rules {
		if r.Source == "" {
			r.Source = "{username}"
		}
		if r.Match == "" {
			return nil, fmt.Errorf("%w: rule %d has no match expression", ErrBadRule, i)
		}
		if r.Output == "" {
			return nil, fmt.Errorf("%w: rule %d has no output template", ErrBadRule, i)
		}
		pattern := "^(?:" + r.Match + ")$"
		if r.IgnoreCase {
			pattern = "(?i)" + pattern
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return nil, fmt.Errorf("%w: rule %d: %v", ErrBadRule, i, err)
		}
		m.rules[i] = r
		m.compiled[i] = re
	}
	return m, nil
}

// sourceFields expands identity fields into a rule source template.
func sourceFields(tmpl string, id auth.Identity) string {
	repl := strings.NewReplacer(
		"{username}", id.Username,
		"{domain}", id.Domain(),
		"{sub}", string(id.Subject),
		"{idp}", id.Provider,
	)
	return repl.Replace(tmpl)
}

// groupRef matches {N} references in rule outputs.
var groupRef = regexp.MustCompile(`\{(\d+)\}`)

// Map implements Mapper.
func (m *ExpressionMapper) Map(id auth.Identity) (string, error) {
	for i, re := range m.compiled {
		src := sourceFields(m.rules[i].Source, id)
		groups := re.FindStringSubmatch(src)
		if groups == nil {
			continue
		}
		out := groupRef.ReplaceAllStringFunc(m.rules[i].Output, func(ref string) string {
			var n int
			fmt.Sscanf(ref, "{%d}", &n)
			// {0} is the first capture group per the Globus convention.
			idx := n + 1
			if idx < len(groups) {
				return groups[idx]
			}
			return ""
		})
		if out == "" {
			continue
		}
		return out, nil
	}
	return "", fmt.Errorf("%w: %s", ErrNoMapping, id.Username)
}

// ParseRules loads rules from the JSON document format of Listing 8:
// {"DATA_TYPE": "expression_identity_mapping#1.0.0", "mappings": [...]}.
// A bare JSON array of rules is also accepted.
func ParseRules(data []byte) ([]Rule, error) {
	var doc struct {
		DataType string `json:"DATA_TYPE"`
		Mappings []Rule `json:"mappings"`
	}
	if err := json.Unmarshal(data, &doc); err == nil && len(doc.Mappings) > 0 {
		return doc.Mappings, nil
	}
	var rules []Rule
	if err := json.Unmarshal(data, &rules); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRule, err)
	}
	return rules, nil
}
