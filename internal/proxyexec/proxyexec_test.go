package proxyexec_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"encoding/json"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/proxyexec"
	"globuscompute/internal/proxystore"
	"globuscompute/internal/sdk"
)

type proxyStack struct {
	tb    *core.Testbed
	ex    *proxyexec.Executor
	store *proxystore.Store
}

func newProxyStack(t *testing.T, minSize int) *proxyStack {
	t.Helper()
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)

	// Client and workers share one in-site store (the testbed object
	// store), as with a shared filesystem or Redis deployment.
	store, err := proxystore.NewStore("site", tb.Objects, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	policy := proxystore.Policy{MinSize: minSize}

	tok, _ := tb.IssueToken("px@uchicago.edu", "uchicago")
	epID, err := tb.StartEndpoint(core.EndpointOptions{
		Name: "px-ep", Owner: "px",
		ProxyStore: store, ProxyPolicy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	inner, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client:     sdk.NewClient(tb.ServiceAddr(), tok.Value),
		EndpointID: epID, Conn: bc,
		Objects: objectstore.NewClient(tb.ObjectsSrv.Addr()),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := proxystore.NewRegistry()
	reg.Register(store)
	ex, err := proxyexec.Wrap(inner, store, reg, policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	return &proxyStack{tb: tb, ex: ex, store: store}
}

func TestWrapValidation(t *testing.T) {
	if _, err := proxyexec.Wrap(nil, nil, nil, proxystore.Policy{}); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestTransparentArgumentProxying(t *testing.T) {
	s := newProxyStack(t, 1024)
	big := strings.Repeat("w", 100_000)
	// identity receives the resolved value even though only a reference
	// crossed the cloud.
	fut, err := s.ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, big)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := s.ex.Result(ctx, fut)
	if err != nil {
		t.Fatal(err)
	}
	var round string
	if err := json.Unmarshal(out, &round); err != nil {
		t.Fatal(err)
	}
	if round != big {
		t.Fatalf("round trip lost data: %d of %d bytes", len(round), len(big))
	}
	if s.store.Metrics.Counter("proxied").Value() < 1 {
		t.Error("argument never proxied")
	}
	if s.store.Metrics.Counter("resolves").Value() < 1 {
		t.Error("worker never resolved the proxy")
	}
}

func TestResultAutoProxied(t *testing.T) {
	s := newProxyStack(t, 1024)
	big := strings.Repeat("r", 50_000)
	fut, err := s.ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, big)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The raw (unresolved) future output is a small reference, not the
	// value: the result was proxied on the worker side.
	raw, err := fut.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 2048 {
		t.Errorf("raw result is %d bytes; expected a reference", len(raw))
	}
	if !strings.Contains(string(raw), "ps_key") {
		t.Errorf("raw result is not a reference: %.80s", raw)
	}
	out, err := s.ex.Result(ctx, fut)
	if err != nil {
		t.Fatal(err)
	}
	var round string
	if err := json.Unmarshal(out, &round); err != nil {
		t.Fatal(err)
	}
	if round != big {
		t.Fatalf("resolved result lost data: %d bytes", len(round))
	}
}

func TestSmallValuesStayInline(t *testing.T) {
	s := newProxyStack(t, 1<<20)
	fut, err := s.ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := s.ex.Result(ctx, fut)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `"tiny"` {
		t.Errorf("out = %s", out)
	}
	if s.store.Metrics.Counter("proxied").Value() != 0 {
		t.Error("small value was proxied")
	}
}
