package sdk_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
	"globuscompute/internal/serialize"
)

type env struct {
	tb     *core.Testbed
	client *sdk.Client
	epID   protocol.UUID
	conn   broker.Conn
	objs   *objectstore.Client
}

func newEnv(t *testing.T, opts core.EndpointOptions) *env {
	t.Helper()
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tok, err := tb.IssueToken("alice@uchicago.edu", "uchicago")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Name == "" {
		opts.Name = "test-ep"
	}
	if opts.SandboxRoot == "" {
		opts.SandboxRoot = t.TempDir()
	}
	epID, err := tb.StartEndpoint(opts)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	return &env{
		tb:     tb,
		client: sdk.NewClient(tb.ServiceAddr(), tok.Value),
		epID:   epID,
		conn:   bc,
		objs:   objectstore.NewClient(tb.ObjectsSrv.Addr()),
	}
}

func (e *env) executor(t *testing.T) *sdk.Executor {
	t.Helper()
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: e.client, EndpointID: e.epID, Conn: e.conn, Objects: e.objs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	return ex
}

func TestExecutorListing1(t *testing.T) {
	// Paper Listing 1: submit a trivial function, print its result.
	e := newEnv(t, core.EndpointOptions{})
	ex := e.executor(t)
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fut.ResultWithin(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "1" {
		t.Errorf("result = %s", out)
	}
}

func TestExecutorManyTasksStreamed(t *testing.T) {
	e := newEnv(t, core.EndpointOptions{Workers: 4})
	ex := e.executor(t)
	const n = 40
	futs := make([]*sdk.Future, n)
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	for i := range futs {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	for i, fut := range futs {
		out, err := fut.ResultWithin(15 * time.Second)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if string(out) != fmt.Sprint(i) {
			t.Errorf("task %d result = %s", i, out)
		}
	}
}

func TestExecutorPollingMode(t *testing.T) {
	e := newEnv(t, core.EndpointOptions{})
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: e.client, EndpointID: e.epID, // no Conn -> polling
		PollInterval: 10 * time.Millisecond,
		Objects:      e.objs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "add"}, 20, 22)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fut.ResultWithin(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "42" {
		t.Errorf("result = %s", out)
	}
}

func TestExecutorTaskFailure(t *testing.T) {
	e := newEnv(t, core.EndpointOptions{})
	ex := e.executor(t)
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "fail"}, "deliberate")
	if err != nil {
		t.Fatal(err)
	}
	_, err = fut.ResultWithin(10 * time.Second)
	if !errors.Is(err, sdk.ErrTaskFailed) {
		t.Errorf("err = %v, want ErrTaskFailed", err)
	}
	if err != nil && !strings.Contains(err.Error(), "deliberate") {
		t.Errorf("error lost remote message: %v", err)
	}
}

func TestShellFunctionListing2(t *testing.T) {
	// Paper Listing 2: echo with a formatted message, three submissions.
	e := newEnv(t, core.EndpointOptions{})
	ex := e.executor(t)
	sf := sdk.NewShellFunction("echo '{message}'")
	for _, msg := range []string{"hello", "hola", "bonjour"} {
		fut, err := ex.SubmitShell(sf, map[string]string{"message": msg})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		sr, err := fut.ShellResult(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Stdout != msg {
			t.Errorf("stdout = %q, want %q", sr.Stdout, msg)
		}
		if sr.ReturnCode != 0 {
			t.Errorf("rc = %d", sr.ReturnCode)
		}
	}
}

func TestShellFunctionListing3Walltime(t *testing.T) {
	// Paper Listing 3: sleep 2 with walltime 1 -> rc 124 (scaled down).
	e := newEnv(t, core.EndpointOptions{})
	ex := e.executor(t)
	bf := sdk.NewShellFunction("sleep 2")
	bf.WalltimeSec = 0.1
	fut, err := ex.SubmitShell(bf, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sr, err := fut.ShellResult(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ReturnCode != 124 {
		t.Errorf("rc = %d, want 124", sr.ReturnCode)
	}
}

func TestMPIFunctionListing6(t *testing.T) {
	// Paper Listing 6/7: hostname over 2 nodes x n ranks.
	e := newEnv(t, core.EndpointOptions{WithMPI: true, MPIBlockNodes: 2})
	ex := e.executor(t)
	fn := sdk.NewMPIFunction("echo $GC_NODE")
	for _, rpn := range []int{1, 2} {
		ex.ResourceSpec = protocol.ResourceSpec{NumNodes: 2, RanksPerNode: rpn}
		fut, err := ex.SubmitMPI(fn, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		sr, err := fut.ShellResult(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(sr.Stdout, "\n")
		if len(lines) != 2*rpn {
			t.Errorf("rpn=%d: lines = %v", rpn, lines)
		}
	}
}

func TestOnTheFlyRegistrationOnce(t *testing.T) {
	e := newEnv(t, core.EndpointOptions{})
	ex := e.executor(t)
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	for i := 0; i < 5; i++ {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.ResultWithin(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	u, err := e.client.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if u.Functions != 1 {
		t.Errorf("functions registered = %d, want 1 (cached)", u.Functions)
	}
}

func TestLargeResultViaObjectStore(t *testing.T) {
	e := newEnv(t, core.EndpointOptions{})
	ex := e.executor(t)
	// identity of a big string: the result exceeds the spill threshold.
	big := strings.Repeat("x", serialize.DefaultInlineThreshold+1000)
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, big)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fut.ResultWithin(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < len(big) {
		t.Errorf("result size = %d, want >= %d", len(out), len(big))
	}
}

func TestPayloadOverLimitRejected(t *testing.T) {
	e := newEnv(t, core.EndpointOptions{})
	ex := e.executor(t)
	big := strings.Repeat("x", serialize.MaxPayload+1)
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, big)
	if err != nil {
		t.Fatal(err) // enqueue succeeds; the flush fails
	}
	_, err = fut.ResultWithin(10 * time.Second)
	// "Too large" (413), not a malformed request, and not worth a retry: the
	// service refuses the payload's section before reading it.
	var api *sdk.APIError
	if !errors.As(err, &api) || api.Status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized payload: %v, want an API error with status 413", err)
	}
	if n := e.client.Retries.Load(); n != 0 {
		t.Errorf("retried %d times", n)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := newEnv(t, core.EndpointOptions{})
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: e.client, EndpointID: e.epID, Conn: e.conn,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex.Close()
	if _, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, 1); !errors.Is(err, sdk.ErrExecutorClosed) {
		t.Errorf("err = %v", err)
	}
}

func TestDrain(t *testing.T) {
	e := newEnv(t, core.EndpointOptions{Workers: 2})
	ex := e.executor(t)
	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	futs := make([]*sdk.Future, 10)
	for i := range futs {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i, fut := range futs {
		if out, err := fut.Result(ctx); err != nil || string(out) != fmt.Sprint(i) {
			t.Fatalf("future %d = %q, %v", i, out, err)
		}
	}
}

func TestTaskIDAvailableAfterFlush(t *testing.T) {
	e := newEnv(t, core.EndpointOptions{})
	ex := e.executor(t)
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, "x")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id, err := fut.TaskID(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !id.Valid() {
		t.Errorf("task ID %q", id)
	}
	// The REST polling path agrees with the streamed result.
	if _, err := fut.Result(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := e.client.TaskStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != protocol.StateSuccess {
		t.Errorf("polled state = %s", st.State)
	}
}

func TestKwargsRoundTrip(t *testing.T) {
	e := newEnv(t, core.EndpointOptions{})
	ex := e.executor(t)
	fut, err := ex.SubmitKwargs(&sdk.PythonFunction{Entrypoint: "echo_kwargs"}, nil,
		map[string]any{"alpha": 1.0, "beta": "two"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := fut.ResultWithin(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"beta":"two"`) {
		t.Errorf("output = %s", out)
	}
}
