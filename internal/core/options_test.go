package core_test

import (
	"regexp"
	"strings"
	"testing"

	"globuscompute/internal/core"
	"globuscompute/internal/template"
)

func TestStartMEPRequiresMapper(t *testing.T) {
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, _, err := tb.StartMEP(core.MEPOptions{Name: "no-mapper"}); err == nil {
		t.Error("MEP without mapper accepted")
	}
}

func TestDefaultMEPTemplateAndSchemaAgree(t *testing.T) {
	// Every variable the default template requires is validated by the
	// default schema, and a fully-specified config renders cleanly.
	schema := core.DefaultMEPSchema()
	vars := map[string]any{
		"NODES_PER_BLOCK":  8,
		"WORKERS_PER_NODE": 2,
		"ACCOUNT_ID":       "alloc-42",
		"WALLTIME":         "01:00:00",
	}
	if err := schema.Validate(vars); err != nil {
		t.Fatalf("schema rejects canonical vars: %v", err)
	}
	rendered, err := template.Render(core.DefaultMEPTemplate, vars)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, want := range []string{`"nodes_per_block": 8`, `"account": "alloc-42"`, `"walltime": "01:00:00"`} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered template missing %q:\n%s", want, rendered)
		}
	}
	// Template variables are exactly the schema's property set.
	for _, m := range regexp.MustCompile(`\{\{\s*(\w+)`).FindAllStringSubmatch(core.DefaultMEPTemplate, -1) {
		if _, ok := schema.Properties[m[1]]; !ok {
			t.Errorf("template variable %s missing from schema", m[1])
		}
	}
	// Defaults cover the optional variables.
	minimal := map[string]any{"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "a"}
	if _, err := template.Render(core.DefaultMEPTemplate, minimal); err != nil {
		t.Errorf("render with defaults: %v", err)
	}
}

func TestTestbedBrokerTCPRoundTrip(t *testing.T) {
	// The testbed's TCP broker front end serves real clients.
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if tb.BrokerSrv == nil || tb.ObjectsSrv == nil || tb.HTTP == nil {
		t.Fatal("HTTP mode servers missing")
	}
	if !strings.Contains(tb.String(), "http=") {
		t.Errorf("String() = %s", tb.String())
	}
}
