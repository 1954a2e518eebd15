package webservice

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/durable"
	"globuscompute/internal/endpoint"
	"globuscompute/internal/engine"
	"globuscompute/internal/obs"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
)

// stackFixture is the test fixture over a stack's substrates, with a token
// for alice.
func stackFixture(t *testing.T, st *Stack) *fixture {
	t.Helper()
	tok, err := st.Auth.Issue(
		auth.Identity{Username: "alice@uchicago.edu", Provider: "uchicago"},
		[]string{auth.ScopeCompute, auth.ScopeManage}, time.Hour, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{svc: st.Service, store: st.Store, brk: st.Broker, objs: st.Objects, authS: st.Auth, token: tok}
}

// TestStackDrainKeepsAcknowledgedTasks crosses the SIGTERM path of
// gc-webservice -data-dir end to end: clients submit and an endpoint
// heartbeats over HTTP while the retention sweeper, watchdog and SLO
// evaluator run at millisecond cadence and an in-process agent works through
// a backlog, then Close drains the stack in the middle of it. Every submit
// the service acknowledged must be there after a reopen on the same
// directory, nothing may have reached a closed WAL, and both WALs must come
// back whole.
func TestStackDrainKeepsAcknowledgedTasks(t *testing.T) {
	dir := t.TempDir()
	logs := obs.NewLogBuffer(0)
	open := func() *Stack {
		t.Helper()
		st, err := OpenStack(StackConfig{
			Service: Config{
				log:  obs.NewPipeline(obs.PipelineConfig{Buffer: logs}).Component("webservice"),
				logs: logs,
			},
			DataDir: dir, SnapshotEvery: -1,
			HTTPAddr: "127.0.0.1:0", BrokerAddr: "127.0.0.1:0", ObjectsAddr: "127.0.0.1:0",
			// The watchdog keeps marking the endpoint offline and the
			// heartbeats keep marking it online: both journal, all the way
			// into the drain.
			RetentionEvery: time.Millisecond,
			Watchdog:       WatchdogConfig{HeartbeatTimeout: time.Millisecond, Interval: time.Millisecond},
			SLOEvery:       time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := open()
	f := stackFixture(t, st)
	tok := f.token
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "drain-ep", Owner: "alice@uchicago.edu"})
	// One slow worker: results keep arriving all through the drain.
	eng, err := engine.New(engine.Config{
		Provider: provider.NewLocal(1),
		Run: func(_ context.Context, task protocol.Task, _ engine.WorkerInfo) protocol.Result {
			time.Sleep(2 * time.Millisecond)
			return protocol.Result{State: protocol.StateSuccess, Output: task.Payload}
		},
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := endpoint.New(endpoint.Config{
		EndpointID: ep, Conn: broker.LocalConn(st.Broker), Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()

	// post returns false once the service stops answering.
	base := "http://" + st.HTTP.Addr()
	post := func(c *http.Client, path string, body, out any) bool {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return false
		}
		req, err := http.NewRequest("POST", base+path, bytes.NewReader(buf))
		if err != nil {
			t.Error(err)
			return false
		}
		req.Header.Set("Authorization", "Bearer "+tok.Value)
		resp, err := c.Do(req)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		return out == nil || json.NewDecoder(resp.Body).Decode(out) == nil
	}

	var (
		mu    sync.Mutex
		acked []protocol.UUID
		wg    sync.WaitGroup
	)
	const submitters = 4
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &http.Client{Timeout: 10 * time.Second}
			req := submitRequest{Tasks: []SubmitRequest{
				{EndpointID: ep, FunctionID: fn, Payload: []byte(`"a"`)},
				{EndpointID: ep, FunctionID: fn, Payload: []byte(`"b"`)},
			}}
			for {
				var resp submitResponse
				if !post(c, "/v2/submit", req, &resp) {
					return
				}
				mu.Lock()
				acked = append(acked, resp.TaskIDs...)
				mu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := &http.Client{Timeout: 10 * time.Second}
		for post(c, "/v2/endpoints/"+string(ep)+"/heartbeat", heartbeatRequest{Online: true}, nil) {
			time.Sleep(time.Millisecond)
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d tasks acknowledged before the drain", n)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := st.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	for _, r := range logs.Search(obs.Query{MinLevel: slog.LevelWarn}) {
		if strings.Contains(r.Attrs["error"], durable.ErrClosed.Error()) {
			t.Errorf("journaled to a closed WAL during the drain: %s (%v)", r.Message, r.Attrs)
		}
	}

	st2 := open()
	defer st2.Close(context.Background())
	if n := st2.Durable.WAL().TailRepairs(); n != 0 {
		t.Errorf("state WAL repaired %d torn tails after a clean drain", n)
	}
	if n := st2.DurableBroker.WAL().TailRepairs(); n != 0 {
		t.Errorf("broker WAL repaired %d torn tails after a clean drain", n)
	}
	for _, id := range acked {
		if _, err := st2.Service.GetTask(id); err != nil {
			t.Errorf("acknowledged task %s lost across the drain: %v", id, err)
		}
	}
	t.Logf("%d acknowledged tasks survived the drain", len(acked))
}
