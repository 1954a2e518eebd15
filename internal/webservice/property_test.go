package webservice

import (
	"math/rand"
	"testing"
	"time"

	"globuscompute/internal/protocol"
)

// TestPropertyTaskConservation drives the service with randomized agent
// behaviour (success, failure, nack-then-success, slow) and checks the
// global invariant: every submitted task reaches exactly one terminal
// state, and the terminal counts add up to the submission count.
func TestPropertyTaskConservation(t *testing.T) {
	f := newFixture(t)
	fn := f.registerFunction(t)
	ep := f.registerEndpoint(t, RegisterEndpointRequest{Name: "prop", Owner: "o"})

	rng := rand.New(rand.NewSource(7))
	// A misbehaving agent: random outcomes, occasional redelivery.
	c, err := f.brk.Consume(TaskQueue(ep), 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	go func() {
		for m := range c.Messages() {
			task, err := protocol.DecodeTask(m.Body)
			if err != nil {
				c.Reject(m.Tag)
				continue
			}
			switch rng.Intn(4) {
			case 0: // succeed
				res := protocol.Result{TaskID: task.ID, State: protocol.StateSuccess, Output: []byte(`"ok"`)}
				b := protocol.EncodeResult(&res)
				f.brk.Publish(ResultQueue(ep), b)
				c.Ack(m.Tag)
			case 1: // fail
				res := protocol.Result{TaskID: task.ID, State: protocol.StateFailed, Error: "simulated"}
				b := protocol.EncodeResult(&res)
				f.brk.Publish(ResultQueue(ep), b)
				c.Ack(m.Tag)
			case 2: // nack once; redelivery succeeds
				if m.Redelivered {
					res := protocol.Result{TaskID: task.ID, State: protocol.StateSuccess, Output: []byte(`"retried"`)}
					b := protocol.EncodeResult(&res)
					f.brk.Publish(ResultQueue(ep), b)
					c.Ack(m.Tag)
				} else {
					c.Nack(m.Tag)
				}
			default: // duplicate result then success (idempotency pressure)
				res := protocol.Result{TaskID: task.ID, State: protocol.StateSuccess, Output: []byte(`"dup"`)}
				b := protocol.EncodeResult(&res)
				f.brk.Publish(ResultQueue(ep), b)
				f.brk.Publish(ResultQueue(ep), b)
				c.Ack(m.Tag)
			}
		}
	}()

	const total = 120
	var ids []protocol.UUID
	for i := 0; i < total; i += 4 {
		reqs := make([]SubmitRequest, 4)
		for j := range reqs {
			reqs[j] = SubmitRequest{EndpointID: ep, FunctionID: fn, Payload: []byte(`{}`)}
		}
		batch, err := f.svc.Submit(f.token, reqs)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, batch...)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		counts := f.store.CountTasksByState()
		terminal := counts[protocol.StateSuccess] + counts[protocol.StateFailed] + counts[protocol.StateCancelled]
		if terminal == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("terminal = %d of %d (counts %v)", terminal, total, counts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Conservation: terminal states partition the submissions exactly.
	counts := f.store.CountTasksByState()
	sum := 0
	for _, n := range counts {
		sum += n
	}
	if sum != total {
		t.Errorf("state counts sum to %d, want %d: %v", sum, total, counts)
	}
	// Each task individually reached exactly one terminal state.
	for _, id := range ids {
		st, err := f.svc.GetTask(id)
		if err != nil {
			t.Fatalf("task %s lost: %v", id, err)
		}
		if !st.State.Terminal() {
			t.Errorf("task %s non-terminal: %s", id, st.State)
		}
	}
}
