// Package experiments implements the reproduction harness: one function per
// paper artifact (figures, listings, and quantitative claims — see
// DESIGN.md's per-experiment index). Each experiment assembles a testbed,
// drives the workload, and returns a printable Report; the gc-bench command
// prints them and bench_test.go measures them.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/idmap"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
	"globuscompute/internal/trace"
)

// Report is a printable experiment result.
type Report struct {
	ID    string
	Title string
	// Header describes the columns of Rows (optional).
	Header string
	Rows   []string
	// Notes carries paper-vs-measured commentary.
	Notes []string
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Header != "" {
		fmt.Fprintln(&b, r.Header)
	}
	for _, row := range r.Rows {
		fmt.Fprintln(&b, row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// env is a booted testbed plus client-side plumbing shared by experiments.
type env struct {
	tb     *core.Testbed
	client *sdk.Client
	conn   *broker.ReconnectingConn
	objs   *objectstore.Client
}

func newEnv(clusterNodes int) (*env, error) {
	tb, err := core.NewTestbed(core.Options{ClusterNodes: clusterNodes})
	if err != nil {
		return nil, err
	}
	tok, err := tb.IssueToken("bench@uchicago.edu", "uchicago")
	if err != nil {
		tb.Close()
		return nil, err
	}
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		tb.Close()
		return nil, err
	}
	return &env{
		tb:     tb,
		client: sdk.NewClient(tb.ServiceAddr(), tok.Value),
		conn:   bc,
		objs:   objectstore.NewClient(tb.ObjectsSrv.Addr()),
	}, nil
}

func (e *env) close() {
	e.conn.Close()
	e.tb.Close()
}

func (e *env) executor(ep protocol.UUID) (*sdk.Executor, error) {
	return sdk.NewExecutor(sdk.ExecutorConfig{
		Client: e.client, EndpointID: ep, Conn: e.conn, Objects: e.objs,
		Tracer: trace.NewTracer("sdk", e.tb.Traces),
	})
}

func uchicagoMapper() idmap.Mapper {
	m, err := idmap.NewExpressionMapper([]idmap.Rule{{
		Match: `(.*)@uchicago\.edu`, Output: "{0}",
	}})
	if err != nil {
		panic(err)
	}
	return m
}

// waitAll resolves a set of futures, returning the wall time from start.
func waitAll(futs []*sdk.Future, timeout time.Duration) error {
	for i, f := range futs {
		if _, err := f.ResultWithin(timeout); err != nil {
			return fmt.Errorf("future %d: %w", i, err)
		}
	}
	return nil
}

// shellResultWithin bounds a ShellResult wait.
func shellResultWithin(f *sdk.Future, d time.Duration) (protocol.ShellResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return f.ShellResult(ctx)
}
