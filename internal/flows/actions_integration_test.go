package flows_test

import (
	"strings"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/flows"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/sdk"
)

func flowStack(t *testing.T) (*flows.Runner, *sdk.Executor) {
	t.Helper()
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tok, err := tb.IssueToken("flows@uchicago.edu", "uchicago")
	if err != nil {
		t.Fatal(err)
	}
	epID, err := tb.StartEndpoint(core.EndpointOptions{Name: "flow-ep", Owner: "flows", SandboxRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client:     sdk.NewClient(tb.ServiceAddr(), tok.Value),
		EndpointID: epID, Conn: bc,
		Objects: objectstore.NewClient(tb.ObjectsSrv.Addr()),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	runner := flows.NewRunner()
	t.Cleanup(runner.Close)
	return runner, ex
}

func TestComputeActionIntegration(t *testing.T) {
	runner, ex := flowStack(t)
	flow := flows.Flow{Name: "compute", Actions: []flows.Action{
		flows.ComputeAction("add", ex, &sdk.PythonFunction{Entrypoint: "add"},
			func(s flows.State) []any { return []any{s["a"], s["b"]} }, "sum"),
		flows.ComputeAction("double", ex, &sdk.PythonFunction{Entrypoint: "add"},
			func(s flows.State) []any { return []any{s["sum"], s["sum"]} }, "doubled"),
	}}
	id, err := runner.Start(flow, flows.State{"a": 19, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	info, err := runner.Wait(id, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != flows.RunSucceeded {
		t.Fatalf("status = %s log=%+v", info.Status, info.Log)
	}
	if info.State["sum"].(float64) != 21 || info.State["doubled"].(float64) != 42 {
		t.Errorf("state = %v", info.State)
	}
}

func TestShellActionIntegration(t *testing.T) {
	runner, ex := flowStack(t)
	sf := sdk.NewShellFunction("echo processed-{name}")
	flow := flows.Flow{Name: "shell", Actions: []flows.Action{
		flows.ShellAction("process", ex, sf,
			func(s flows.State) map[string]string { return map[string]string{"name": s["name"].(string)} },
			"log"),
	}}
	id, _ := runner.Start(flow, flows.State{"name": "sample42"})
	info, _ := runner.Wait(id, time.Minute)
	if info.Status != flows.RunSucceeded {
		t.Fatalf("status = %s log=%+v", info.Status, info.Log)
	}
	if !strings.Contains(info.State["log"].(string), "processed-sample42") {
		t.Errorf("log = %v", info.State["log"])
	}
}

func TestShellActionNonZeroFailsFlow(t *testing.T) {
	runner, ex := flowStack(t)
	flow := flows.Flow{Name: "failing-shell", Actions: []flows.Action{
		flows.ShellAction("boom", ex, sdk.NewShellFunction("exit 3"), nil, ""),
	}}
	id, _ := runner.Start(flow, nil)
	info, _ := runner.Wait(id, time.Minute)
	if info.Status != flows.RunFailed {
		t.Fatalf("status = %s", info.Status)
	}
	if !strings.Contains(info.Log[0].Err, "exited 3") {
		t.Errorf("err = %q", info.Log[0].Err)
	}
}

func TestComputeActionRemoteErrorFailsFlow(t *testing.T) {
	runner, ex := flowStack(t)
	flow := flows.Flow{Name: "failing-compute", Actions: []flows.Action{
		flows.ComputeAction("fail", ex, &sdk.PythonFunction{Entrypoint: "fail"},
			func(flows.State) []any { return []any{"remote-exception"} }, ""),
	}}
	id, _ := runner.Start(flow, nil)
	info, _ := runner.Wait(id, time.Minute)
	if info.Status != flows.RunFailed {
		t.Fatalf("status = %s", info.Status)
	}
	if !strings.Contains(info.Log[0].Err, "remote-exception") {
		t.Errorf("remote error lost: %q", info.Log[0].Err)
	}
}
