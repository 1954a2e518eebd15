package webservice

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/serialize"
	"globuscompute/internal/statestore"
)

type fixture struct {
	svc   *Service
	store *statestore.Store
	brk   *broker.Broker
	objs  *objectstore.Store
	authS *auth.Service
	token auth.Token
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	return newFixtureConfig(t, Config{Objects: objectstore.New()})
}

// newFixtureConfig builds the fixture around cfg.Objects and any other
// service settings cfg carries.
func newFixtureConfig(t testing.TB, cfg Config) *fixture {
	t.Helper()
	f := &fixture{
		store: statestore.New(),
		brk:   broker.New(),
		objs:  cfg.Objects,
		authS: auth.NewService(),
	}
	cfg.Store, cfg.Broker, cfg.Auth = f.store, f.brk, f.authS
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.svc = svc
	tok, err := f.authS.Issue(
		auth.Identity{Username: "alice@uchicago.edu", Provider: "uchicago"},
		[]string{auth.ScopeCompute, auth.ScopeManage}, time.Hour, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	f.token = tok
	t.Cleanup(func() {
		f.svc.Close()
		f.brk.Close()
	})
	return f
}

// registerEndpoint is a helper returning a plain online endpoint.
func (f *fixture) registerEndpoint(t testing.TB, req RegisterEndpointRequest) protocol.UUID {
	t.Helper()
	id, err := f.svc.RegisterEndpoint(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.svc.SetEndpointStatus(id, true); err != nil {
		t.Fatal(err)
	}
	return id
}

// fakeAgent consumes the endpoint's task queue and echoes payloads back as
// successful results.
func (f *fixture) fakeAgent(t *testing.T, ep protocol.UUID) {
	t.Helper()
	c, err := f.brk.Consume(TaskQueue(ep), 16)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for m := range c.Messages() {
			task, err := protocol.DecodeTask(m.Body)
			if err != nil {
				c.Ack(m.Tag)
				continue
			}
			payload := task.Payload
			if task.PayloadRef != "" {
				payload, _ = f.objs.Get(task.PayloadRef)
			}
			res := protocol.Result{
				TaskID: task.ID, State: protocol.StateSuccess,
				Output: payload, EndpointID: ep,
				Started: time.Now(), Completed: time.Now(),
			}
			body := protocol.EncodeResult(&res)
			f.brk.Publish(ResultQueue(ep), body)
			c.Ack(m.Tag)
		}
	}()
	t.Cleanup(c.Close)
}

func (f *fixture) registerFunction(t testing.TB) protocol.UUID {
	t.Helper()
	id, err := f.svc.RegisterFunction("alice@uchicago.edu", protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func waitTask(t *testing.T, svc *Service, id protocol.UUID, timeout time.Duration) TaskStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := svc.GetTask(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("task %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestEndToEndSubmitAndResult(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "laptop", Owner: "alice@uchicago.edu"})
	f.fakeAgent(t, ep)

	ids, err := f.svc.Submit(f.token, []SubmitRequest{{
		EndpointID: ep, FunctionID: fn, Payload: []byte(`"hello"`),
	}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTask(t, f.svc, ids[0], 5*time.Second)
	if st.State != protocol.StateSuccess {
		t.Fatalf("state = %s err=%s", st.State, st.Error)
	}
	if string(st.Result) != `"hello"` {
		t.Errorf("result = %q", st.Result)
	}
}

func TestRegisterFunctionValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := f.svc.RegisterFunction("o", protocol.KindPython, nil); err == nil {
		t.Error("empty definition accepted")
	}
	if _, err := f.svc.RegisterFunction("o", "golang", []byte("x")); err == nil {
		t.Error("unknown kind accepted")
	}
	id, err := f.svc.RegisterFunction("o", protocol.KindShell, []byte("spec"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.svc.GetFunction(id)
	if err != nil || rec.Kind != protocol.KindShell {
		t.Errorf("rec = %+v, %v", rec, err)
	}
}

func TestSubmitUnknownFunctionOrEndpoint(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	if _, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: protocol.NewUUID(), Payload: []byte("{}")}}); !errors.Is(err, statestore.ErrNotFound) {
		t.Errorf("unknown function: %v", err)
	}
	if _, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: protocol.NewUUID(), FunctionID: fn, Payload: []byte("{}")}}); !errors.Is(err, statestore.ErrNotFound) {
		t.Errorf("unknown endpoint: %v", err)
	}
	if _, err := f.svc.Submit(f.token, nil); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestPayloadLimitAtService(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	big := make([]byte, serialize.MaxPayload+1)
	_, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: big}})
	if !errors.Is(err, serialize.ErrPayloadTooLarge) {
		t.Errorf("err = %v, want payload-too-large", err)
	}
}

func TestPayloadSpillsToObjectStore(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	f.fakeAgent(t, ep)
	payload := make([]byte, serialize.DefaultInlineThreshold+100)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	ids, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: payload}})
	if err != nil {
		t.Fatal(err)
	}
	if f.objs.Len() == 0 {
		t.Error("payload not spilled to object store")
	}
	st := waitTask(t, f.svc, ids[0], 5*time.Second)
	if st.State != protocol.StateSuccess {
		t.Fatalf("state = %s", st.State)
	}
	// The large echoed output must itself have spilled.
	if st.ResultRef == "" {
		t.Error("large result not spilled to object store")
	}
	got, err := f.objs.Get(st.ResultRef)
	if err != nil || len(got) != len(payload) {
		t.Errorf("result blob: %d bytes, %v", len(got), err)
	}
}

func TestBatchSpansMultipleEndpoints(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	epA := f.registerEndpoint(t, RegisterEndpointRequest{Name: "a", Owner: "o"})
	epB := f.registerEndpoint(t, RegisterEndpointRequest{Name: "b", Owner: "o"})
	f.fakeAgent(t, epA)
	f.fakeAgent(t, epB)
	ids, err := f.svc.Submit(f.token, []SubmitRequest{
		{EndpointID: epA, FunctionID: fn, Payload: []byte(`"to-a"`)},
		{EndpointID: epB, FunctionID: fn, Payload: []byte(`"to-b"`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	stA := waitTask(t, f.svc, ids[0], 5*time.Second)
	stB := waitTask(t, f.svc, ids[1], 5*time.Second)
	if string(stA.Result) != `"to-a"` || string(stB.Result) != `"to-b"` {
		t.Errorf("results = %s, %s", stA.Result, stB.Result)
	}
	// Tasks landed on their own endpoints.
	for i, ep := range []protocol.UUID{epA, epB} {
		if rec, err := f.store.GetTask(ids[i]); err != nil || rec.Task.EndpointID != ep {
			t.Errorf("task %d on endpoint %s, want %s (%v)", i, rec.Task.EndpointID, ep, err)
		}
	}
}

func TestBatchValidatesBeforeEnqueue(t *testing.T) {
	// A batch with one bad entry must enqueue nothing.
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	_, err := f.svc.Submit(f.token, []SubmitRequest{
		{EndpointID: ep, FunctionID: fn, Payload: []byte(`"good"`)},
		{EndpointID: ep, FunctionID: protocol.NewUUID(), Payload: []byte(`"bad-fn"`)},
	})
	if err == nil {
		t.Fatal("batch with unknown function accepted")
	}
	if f.store.CountTasks() != 0 {
		t.Errorf("partial batch enqueued %d tasks", f.store.CountTasks())
	}
	if d, _ := f.brk.Depth(TaskQueue(ep)); d != 0 {
		t.Errorf("queue depth = %d after failed batch", d)
	}
}

func TestAllowedFunctionsEnforced(t *testing.T) {
	f := newFixture(t)
	allowed := f.registerFunction(t)
	other := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{
		Name: "gateway", Owner: "admin", AllowedFunctions: []protocol.UUID{allowed},
	})
	if _, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: other, Payload: []byte("{}")}}); !errors.Is(err, ErrFunctionNotAllowed) {
		t.Errorf("disallowed function: %v", err)
	}
	if _, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: allowed, Payload: []byte("{}")}}); err != nil {
		t.Errorf("allowed function rejected: %v", err)
	}
}

func TestAuthPolicyEnforced(t *testing.T) {
	f := newFixture(t)
	f.authS.RegisterPolicy(auth.Policy{Name: "anl-only", AllowedDomains: []string{"anl.gov"}})
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "secure", Owner: "admin", AuthPolicy: "anl-only"})
	if _, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte("{}")}}); !errors.Is(err, auth.ErrPolicyDenied) {
		t.Errorf("policy not enforced: %v", err)
	}
	anlTok, _ := f.authS.Issue(auth.Identity{Username: "bob@anl.gov", Provider: "anl"}, []string{auth.ScopeCompute}, time.Hour, time.Time{})
	if _, err := f.svc.Submit(anlTok, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte("{}")}}); err != nil {
		t.Errorf("allowed identity rejected: %v", err)
	}
}

func TestMEPSpawnAndConfigHashReuse(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	mep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "cluster", Owner: "admin", MultiUser: true})

	// Listen on the MEP command queue like the MEP agent would.
	cmds, err := f.brk.Consume(CommandQueue(mep), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cmds.Close()

	confA := json.RawMessage(`{"NODES": 4, "ACCOUNT": "alloc1"}`)
	confAReordered := json.RawMessage(`{"ACCOUNT": "alloc1", "NODES": 4}`)
	confB := json.RawMessage(`{"NODES": 8, "ACCOUNT": "alloc1"}`)

	// Submission without a config fails.
	if _, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: mep, FunctionID: fn, Payload: []byte("{}")}}); !errors.Is(err, ErrNeedsUserConfig) {
		t.Errorf("missing config: %v", err)
	}

	submit := func(conf json.RawMessage) protocol.UUID {
		ids, err := f.svc.Submit(f.token, []SubmitRequest{{
			EndpointID: mep, FunctionID: fn, Payload: []byte("{}"), UserEndpointConfig: conf,
		}})
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := f.store.GetTask(ids[0])
		return rec.Task.EndpointID
	}

	childA1 := submit(confA)
	childA2 := submit(confAReordered) // key-order-insensitive hash
	childB := submit(confB)

	if childA1 == mep {
		t.Fatal("task routed to the MEP itself")
	}
	if childA1 != childA2 {
		t.Errorf("same config spawned different UEPs: %s vs %s", childA1, childA2)
	}
	if childB == childA1 {
		t.Error("different config reused the same UEP")
	}

	// Exactly two start commands (one per distinct config).
	starts := 0
	timeout := time.After(2 * time.Second)
	for starts < 2 {
		select {
		case m := <-cmds.Messages():
			var cmd StartEndpointCommand
			if err := json.Unmarshal(m.Body, &cmd); err != nil {
				t.Fatal(err)
			}
			if cmd.UserIdentity.Username != "alice@uchicago.edu" {
				t.Errorf("identity = %s", cmd.UserIdentity.Username)
			}
			if cmd.ConfigHash == "" || cmd.ChildEndpointID == "" {
				t.Errorf("cmd = %+v", cmd)
			}
			cmds.Ack(m.Tag)
			starts++
		case <-timeout:
			t.Fatalf("saw %d start commands, want 2", starts)
		}
	}
	select {
	case <-cmds.Messages():
		t.Error("third start command issued for a reused config")
	case <-time.After(100 * time.Millisecond):
	}

	// Children inherit parent linkage for usage accounting.
	usage := f.svc.Usage()
	if usage.MultiUserEPs != 1 || usage.UserEndpoints != 2 {
		t.Errorf("usage = %+v", usage)
	}
}

func TestDifferentUsersGetDifferentUEPs(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	mep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "c", Owner: "admin", MultiUser: true})
	conf := json.RawMessage(`{"NODES": 1}`)

	bobTok, _ := f.authS.Issue(auth.Identity{Username: "bob@anl.gov", Provider: "anl"}, []string{auth.ScopeCompute}, time.Hour, time.Time{})
	idsA, err := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: mep, FunctionID: fn, Payload: []byte("{}"), UserEndpointConfig: conf}})
	if err != nil {
		t.Fatal(err)
	}
	idsB, err := f.svc.Submit(bobTok, []SubmitRequest{{EndpointID: mep, FunctionID: fn, Payload: []byte("{}"), UserEndpointConfig: conf}})
	if err != nil {
		t.Fatal(err)
	}
	recA, _ := f.store.GetTask(idsA[0])
	recB, _ := f.store.GetTask(idsB[0])
	if recA.Task.EndpointID == recB.Task.EndpointID {
		t.Error("two identities shared one user endpoint")
	}
}

func TestGroupResultStreaming(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	f.fakeAgent(t, ep)

	group := protocol.NewUUID()
	if err := f.brk.Declare(GroupResultQueue(group)); err != nil {
		t.Fatal(err)
	}
	stream, err := f.brk.Consume(GroupResultQueue(group), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	ids, err := f.svc.Submit(f.token, []SubmitRequest{
		{EndpointID: ep, FunctionID: fn, Payload: []byte(`1`), GroupID: group},
		{EndpointID: ep, FunctionID: fn, Payload: []byte(`2`), GroupID: group},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[protocol.UUID]bool{}
	timeout := time.After(5 * time.Second)
	for len(got) < 2 {
		select {
		case m := <-stream.Messages():
			res, err := protocol.DecodeResult(m.Body)
			if err != nil {
				t.Fatal(err)
			}
			got[res.TaskID] = true
			stream.Ack(m.Tag)
		case <-timeout:
			t.Fatalf("streamed %d results, want 2", len(got))
		}
	}
	for _, id := range ids {
		if !got[id] {
			t.Errorf("result for %s not streamed", id)
		}
	}
}

func TestHashConfigProperties(t *testing.T) {
	h1, err := HashConfig(json.RawMessage(`{"a": 1, "b": {"c": [1,2]}}`))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashConfig(json.RawMessage(`{"b": {"c": [1,2]}, "a": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("key order changed the hash")
	}
	h3, _ := HashConfig(json.RawMessage(`{"a": 1, "b": {"c": [2,1]}}`))
	if h3 == h1 {
		t.Error("array order should change the hash")
	}
	if _, err := HashConfig(json.RawMessage(`{bad`)); err == nil {
		t.Error("invalid config hashed")
	}
}

func TestUsageCounters(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "e", Owner: "o"})
	f.fakeAgent(t, ep)
	ids, _ := f.svc.Submit(f.token, []SubmitRequest{{EndpointID: ep, FunctionID: fn, Payload: []byte("{}")}})
	waitTask(t, f.svc, ids[0], 5*time.Second)
	u := f.svc.Usage()
	if u.Functions != 1 || u.Endpoints != 1 || u.Tasks != 1 {
		t.Errorf("usage = %+v", u)
	}
	if u.TasksByState[protocol.StateSuccess] != 1 {
		t.Errorf("by-state = %v", u.TasksByState)
	}
}

// TestGroupIndicesAllocs: bucketing a batch by target costs the same
// allocations at 1 task and at 256, and each bucket keeps batch order.
func TestGroupIndicesAllocs(t *testing.T) {
	a, b := protocol.NewUUID(), protocol.NewUUID()
	allocs := func(n int, key func(int) protocol.UUID) float64 {
		return testing.AllocsPerRun(50, func() { groupIndices(n, key) })
	}
	one := func(int) protocol.UUID { return a }
	if small, large := allocs(1, one), allocs(256, one); small != large || large > 4 {
		t.Errorf("one target: %.0f allocations at 1 task, %.0f at 256, want the same and at most 4", small, large)
	}
	two := func(i int) protocol.UUID { return [2]protocol.UUID{a, b}[i%3/2] }
	if small, large := allocs(3, two), allocs(256, two); small != large {
		t.Errorf("two targets: %.0f allocations at 3 tasks, %.0f at 256", small, large)
	}
	order, buckets := groupIndices(7, two)
	if fmt.Sprint(order, buckets) != fmt.Sprint([]protocol.UUID{a, b}, [][]int{{0, 1, 3, 4, 6}, {2, 5}}) {
		t.Errorf("groupIndices = %v %v", order, buckets)
	}
}
