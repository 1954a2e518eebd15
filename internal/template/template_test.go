package template

import (
	"errors"
	"strings"
	"testing"
)

func TestRenderBasic(t *testing.T) {
	got, err := Render("nodes: {{ NODES }}", map[string]any{"NODES": 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != "nodes: 4" {
		t.Errorf("got %q", got)
	}
}

func TestRenderListing9Shape(t *testing.T) {
	// The paper's Listing 9 template shape.
	tmpl := `engine:
  type: GlobusComputeEngine
  nodes_per_block: {{ NODES_PER_BLOCK }}
provider:
  type: SlurmProvider
  partition: cpu
  account: {{ ACCOUNT_ID }}
  walltime: {{ WALLTIME|default("00:30:00") }}`
	got, err := Render(tmpl, map[string]any{"NODES_PER_BLOCK": 64, "ACCOUNT_ID": "314159265"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "nodes_per_block: 64") {
		t.Errorf("missing nodes: %q", got)
	}
	if !strings.Contains(got, "account: 314159265") {
		t.Errorf("missing account: %q", got)
	}
	if !strings.Contains(got, `walltime: 00:30:00`) {
		t.Errorf("default not applied: %q", got)
	}
}

func TestRenderDefaultOverridden(t *testing.T) {
	got, err := Render(`{{ W|default("fallback") }}`, map[string]any{"W": "explicit"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "explicit" {
		t.Errorf("got %q", got)
	}
}

func TestRenderMissingVar(t *testing.T) {
	_, err := Render("{{ REQUIRED }}", nil)
	if !errors.Is(err, ErrMissingVar) {
		t.Errorf("err = %v", err)
	}
}

func TestRenderFilters(t *testing.T) {
	got, err := Render("{{ A|lower }} {{ A|upper }}", map[string]any{"A": "MiXeD"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "mixed MIXED" {
		t.Errorf("got %q", got)
	}
}

func TestRenderJSONFilter(t *testing.T) {
	got, err := Render(`{"v": {{ V|json }}}`, map[string]any{"V": `tricky"value`})
	if err != nil {
		t.Fatal(err)
	}
	if got != `{"v": "tricky\"value"}` {
		t.Errorf("got %q", got)
	}
}

func TestRenderUnknownFilter(t *testing.T) {
	if _, err := Render("{{ A|explode }}", map[string]any{"A": "x"}); !errors.Is(err, ErrUnknownFilter) {
		t.Errorf("err = %v", err)
	}
}

func TestRenderChainedDefaultLower(t *testing.T) {
	got, err := Render(`{{ A|default("ABC")|lower }}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != "abc" {
		t.Errorf("got %q", got)
	}
}

func TestRenderFloats(t *testing.T) {
	got, err := Render("{{ F }}", map[string]any{"F": 2.5})
	if err != nil || got != "2.5" {
		t.Errorf("got %q, %v", got, err)
	}
	got, err = Render("{{ F }}", map[string]any{"F": float64(7)})
	if err != nil || got != "7" {
		t.Errorf("whole float got %q, %v", got, err)
	}
}

func TestRenderWhitespaceVariants(t *testing.T) {
	for _, tmpl := range []string{"{{X}}", "{{ X }}", "{{  X  }}"} {
		got, err := Render(tmpl, map[string]any{"X": "v"})
		if err != nil || got != "v" {
			t.Errorf("Render(%q) = %q, %v", tmpl, got, err)
		}
	}
}

func TestSchemaValidateHappy(t *testing.T) {
	min, max := 1.0, 128.0
	s := Schema{Properties: map[string]Property{
		"NODES":   {Type: TypeInteger, Required: true, Minimum: &min, Maximum: &max},
		"ACCOUNT": {Type: TypeString, Required: true, Pattern: `[0-9]+`},
		"DEBUG":   {Type: TypeBoolean},
	}}
	vars := map[string]any{"NODES": 64, "ACCOUNT": "314159265"}
	if err := s.Validate(vars); err != nil {
		t.Errorf("Validate = %v", err)
	}
}

func TestSchemaMissingRequired(t *testing.T) {
	s := Schema{Properties: map[string]Property{"A": {Type: TypeString, Required: true}}}
	if err := s.Validate(nil); !errors.Is(err, ErrSchema) {
		t.Errorf("err = %v", err)
	}
}

func TestSchemaUnknownProperty(t *testing.T) {
	s := Schema{Properties: map[string]Property{"A": {Type: TypeString}}}
	if err := s.Validate(map[string]any{"B": "x"}); !errors.Is(err, ErrSchema) {
		t.Errorf("err = %v", err)
	}
	s.AdditionalProperties = true
	if err := s.Validate(map[string]any{"B": "x"}); err != nil {
		t.Errorf("additional allowed = %v", err)
	}
}

func TestSchemaTypeErrors(t *testing.T) {
	s := Schema{Properties: map[string]Property{
		"S": {Type: TypeString},
		"I": {Type: TypeInteger},
		"N": {Type: TypeNumber},
		"B": {Type: TypeBoolean},
	}}
	bad := []map[string]any{
		{"S": 3},
		{"I": "three"},
		{"I": 2.5},
		{"N": "nan"},
		{"B": "true"},
	}
	for _, vars := range bad {
		if err := s.Validate(vars); !errors.Is(err, ErrSchema) {
			t.Errorf("Validate(%v) = %v, want schema error", vars, err)
		}
	}
	good := map[string]any{"S": "ok", "I": 3, "N": 2.5, "B": true}
	if err := s.Validate(good); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
}

func TestSchemaRangeEnforced(t *testing.T) {
	min, max := 1.0, 10.0
	s := Schema{Properties: map[string]Property{"N": {Type: TypeInteger, Minimum: &min, Maximum: &max}}}
	if err := s.Validate(map[string]any{"N": 0}); !errors.Is(err, ErrSchema) {
		t.Errorf("below min = %v", err)
	}
	if err := s.Validate(map[string]any{"N": 11}); !errors.Is(err, ErrSchema) {
		t.Errorf("above max = %v", err)
	}
	if err := s.Validate(map[string]any{"N": 5}); err != nil {
		t.Errorf("in range = %v", err)
	}
}

func TestSchemaInjectionGuard(t *testing.T) {
	// Strings without an explicit pattern reject quote/newline/brace
	// characters that could escape the rendered config context.
	s := Schema{Properties: map[string]Property{"V": {Type: TypeString}}}
	for _, evil := range []string{
		"a\"b", "a'b", "a\nb", "{{ PWN }}", `back\slash`,
	} {
		if err := s.Validate(map[string]any{"V": evil}); !errors.Is(err, ErrSchema) {
			t.Errorf("injection %q passed", evil)
		}
	}
	if err := s.Validate(map[string]any{"V": "normal-value_1.0"}); err != nil {
		t.Errorf("benign value rejected: %v", err)
	}
}

func TestSchemaPatternAnchored(t *testing.T) {
	s := Schema{Properties: map[string]Property{"W": {Type: TypeString, Pattern: `\d{2}:\d{2}:\d{2}`}}}
	if err := s.Validate(map[string]any{"W": "00:30:00"}); err != nil {
		t.Errorf("valid walltime rejected: %v", err)
	}
	if err := s.Validate(map[string]any{"W": "xx 00:30:00"}); !errors.Is(err, ErrSchema) {
		t.Errorf("unanchored match passed: %v", err)
	}
}

func TestSchemaEnum(t *testing.T) {
	s := Schema{Properties: map[string]Property{"P": {Type: TypeString, Enum: []string{"cpu", "gpu"}}}}
	if err := s.Validate(map[string]any{"P": "cpu"}); err != nil {
		t.Errorf("enum member rejected: %v", err)
	}
	if err := s.Validate(map[string]any{"P": "tpu"}); !errors.Is(err, ErrSchema) {
		t.Errorf("non-member passed: %v", err)
	}
}

func TestSchemaMaxLength(t *testing.T) {
	s := Schema{Properties: map[string]Property{"V": {Type: TypeString, MaxLength: 4}}}
	if err := s.Validate(map[string]any{"V": "12345"}); !errors.Is(err, ErrSchema) {
		t.Errorf("overlong passed: %v", err)
	}
	// Default cap at 256.
	s2 := Schema{Properties: map[string]Property{"V": {Type: TypeString}}}
	if err := s2.Validate(map[string]any{"V": strings.Repeat("a", 257)}); !errors.Is(err, ErrSchema) {
		t.Errorf("default cap not enforced: %v", err)
	}
}
