package webservice

import (
	"strings"
	"testing"
	"time"

	"globuscompute/internal/protocol"
)

// submitOne submits a single task and returns its ID.
func submitOne(t *testing.T, f *fixture, ep, fn protocol.UUID, group protocol.UUID) protocol.UUID {
	t.Helper()
	ids, err := f.svc.Submit(f.token, []SubmitRequest{{
		EndpointID: ep, FunctionID: fn, Payload: []byte(`{}`), GroupID: group,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return ids[0]
}

func TestWatchdogLeaseFailsStrandedTasks(t *testing.T) {
	f := newFixture(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "doomed", Owner: "alice@uchicago.edu"})
	fn := f.registerFunction(t)
	group := protocol.NewUUID()
	if err := f.brk.Declare(GroupResultQueue(group)); err != nil {
		t.Fatal(err)
	}
	gq, err := f.brk.Consume(GroupResultQueue(group), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gq.Close)

	// No agent consumes the task queue; the endpoint then goes silent. The
	// watchdog must mark it offline and, once the lease runs out, fail the
	// stranded task so the submitter's future resolves.
	id := submitOne(t, f, ep, fn, group)
	stop := f.svc.StartWatchdog(WatchdogConfig{
		HeartbeatTimeout: 30 * time.Millisecond,
		Interval:         10 * time.Millisecond,
		TaskLease:        50 * time.Millisecond,
	})
	defer stop()

	st := waitTask(t, f.svc, id, 5*time.Second)
	if st.State != protocol.StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "lease expired") {
		t.Errorf("error = %q, want lease expiry", st.Error)
	}
	if v := f.svc.Metrics.Counter("lease_expired").Value(); v != 1 {
		t.Errorf("lease_expired = %d, want 1", v)
	}
	if v := f.svc.Metrics.Counter("endpoints_marked_offline").Value(); v < 1 {
		t.Errorf("endpoints_marked_offline = %d, want >= 1", v)
	}
	// The failure streams to the executor's group queue.
	select {
	case m := <-gq.Messages():
		res, err := protocol.DecodeResult(m.Body)
		if err != nil {
			t.Fatal(err)
		}
		if res.TaskID != id || res.State != protocol.StateFailed {
			t.Errorf("group result = %+v", res)
		}
		gq.Ack(m.Tag)
	case <-time.After(2 * time.Second):
		t.Fatal("lease failure never streamed to group queue")
	}
}

func TestHeartbeatsDeferLeaseExpiry(t *testing.T) {
	// While heartbeats keep arriving the endpoint stays online and the lease
	// never applies, even when the task far exceeds the lease duration; only
	// after heartbeats stop does the task expire.
	f := newFixture(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "alive", Owner: "alice@uchicago.edu"})
	fn := f.registerFunction(t)
	id := submitOne(t, f, ep, fn, "")

	stop := f.svc.StartWatchdog(WatchdogConfig{
		HeartbeatTimeout: 40 * time.Millisecond,
		Interval:         10 * time.Millisecond,
		TaskLease:        20 * time.Millisecond,
	})
	defer stop()

	// Heartbeat for ~8 lease periods.
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		for i := 0; i < 16; i++ {
			_ = f.svc.SetEndpointStatus(ep, true)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	<-hbDone
	st, err := f.svc.GetTask(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() {
		t.Fatalf("task reached %s while endpoint was heartbeating", st.State)
	}
	// Heartbeats stop; the offline + lease path now fires.
	st = waitTask(t, f.svc, id, 5*time.Second)
	if st.State != protocol.StateFailed {
		t.Errorf("state = %s, want failed after heartbeats stopped", st.State)
	}
}

func TestLeaseExpiryLosesRaceToRealResult(t *testing.T) {
	// A terminal result recorded before the sweep wins; the sweep must not
	// double-fail the task or inflate the lease counter.
	f := newFixture(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "racy", Owner: "alice@uchicago.edu"})
	f.fakeAgent(t, ep)
	fn := f.registerFunction(t)
	id := submitOne(t, f, ep, fn, "")
	st := waitTask(t, f.svc, id, 5*time.Second)
	if st.State != protocol.StateSuccess {
		t.Fatalf("state = %s", st.State)
	}
	// Endpoint dies after completing the task; lease sweep runs over it.
	_ = f.svc.SetEndpointStatus(ep, false)
	f.svc.expireLeases(time.Nanosecond)
	st2, err := f.svc.GetTask(id)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != protocol.StateSuccess {
		t.Errorf("state = %s, terminal result overwritten by lease sweep", st2.State)
	}
	if v := f.svc.Metrics.Counter("lease_expired").Value(); v != 0 {
		t.Errorf("lease_expired = %d, want 0", v)
	}
}
