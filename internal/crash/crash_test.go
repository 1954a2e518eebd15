// Package crash is the crash-recovery suite: it builds the real
// gc-webservice binary, runs it with -data-dir, and SIGKILLs it repeatedly
// in the middle of a task storm. After every restart the control plane must
// recover from its WALs: no submitted task may be lost, and every task must
// reach exactly one terminal state — never flip between terminal states,
// never execute into two different outcomes. Gated behind GC_CRASH=1 (run
// via `make crash`) because it builds a binary and kills processes.
package crash

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
	"globuscompute/internal/webservice"
)

const (
	kills          = 3   // SIGKILL + restart cycles mid-storm
	batchSize      = 8   // tasks per submit batch
	minSubmitted   = 24  // the storm must land at least this much work
	spillThreshold = 256 // the webservice's -spill-threshold
)

// buildWebservice compiles cmd/gc-webservice once per test binary.
var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

func buildWebservice(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "gc-crash-*")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "gc-webservice")
		cmd := exec.Command("go", "build", "-o", buildBin, "globuscompute/cmd/gc-webservice")
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("build gc-webservice: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// repoRoot walks up from the working directory to the go.mod.
func repoRoot() string {
	dir, _ := os.Getwd()
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

// freeAddr reserves an ephemeral port and releases it for the child to bind.
// The ports must stay fixed across restarts so clients and the agent can
// reconnect to the same addresses.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// webservice wraps one life of the gc-webservice process.
type websvc struct {
	cmd   *exec.Cmd
	token string
}

var tokenRe = regexp.MustCompile(`bootstrap token \([^)]*\): (\S+)`)

// startWS launches gc-webservice on fixed addresses over the shared data
// dir and waits for its bootstrap token (printed after all listeners are
// up). The aggressive snapshot cadence makes snapshots and log compaction
// race with the kills.
func startWS(t *testing.T, bin, httpAddr, brokerAddr, objectsAddr, dataDir string) *websvc {
	t.Helper()
	cmd := exec.Command(bin,
		"-http", httpAddr, "-broker", brokerAddr, "-objects", objectsAddr,
		"-data-dir", dataDir, "-snapshot-every", "300ms",
		// Low spill threshold: the padded storm payloads and their echoed
		// results travel as content-addressed references, so recovery also
		// proves spilled objects survive the kills (the store is file-backed
		// under the data dir).
		"-spill-threshold", fmt.Sprint(spillThreshold))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	tokCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := tokenRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case tokCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case tok := <-tokCh:
		return &websvc{cmd: cmd, token: tok}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("gc-webservice never printed its bootstrap token")
		return nil
	}
}

// kill SIGKILLs the process — no shutdown hook, no final snapshot.
func (w *websvc) kill() {
	w.cmd.Process.Kill()
	w.cmd.Wait()
}

func newClient(httpAddr, token string) *sdk.Client {
	c := sdk.NewClient(httpAddr, token)
	c.MaxRetries = 6
	c.RetryBaseDelay = 25 * time.Millisecond
	c.RetryMaxDelay = 500 * time.Millisecond
	return c
}

// checkObjects asserts that the spilled payload of every acknowledged task,
// and the spilled result of every finished one, resolves to the bytes that
// were submitted (the agent echoes its input); that every finished inline
// task's result is its submitted bytes, although the task table kept no
// copy of them and the queued message was their only one; and that
// objectsDir holds no temp file of an interrupted put. The caller holds the
// storm off, so payloads is not being written.
func checkObjects(t *testing.T, round int, c *sdk.Client, objects *objectstore.Client,
	acked []protocol.UUID, payloads map[protocol.UUID][]byte, objectsDir string) {
	t.Helper()
	finished, inline, queued := 0, 0, 0
	for start := 0; start < len(acked); start += 100 {
		sts, err := c.TaskStatuses(acked[start:min(start+100, len(acked))])
		if err != nil {
			t.Fatalf("round %d: batch status: %v", round, err)
		}
		for _, st := range sts {
			want := payloads[st.TaskID]
			if len(want) <= spillThreshold {
				if !st.State.Terminal() {
					queued++
					continue
				}
				finished++
				inline++
				if st.State != protocol.StateSuccess || string(st.Result) != string(want) {
					t.Errorf("round %d: inline task %s: %s, result %q, want %q", round, st.TaskID, st.State, st.Result, want)
				}
				continue
			}
			if ok, err := objects.Exists(objectstore.ContentKey(want)); err != nil || !ok {
				t.Errorf("round %d: task %s: payload ref does not resolve (%v)", round, st.TaskID, err)
			}
			if st.ResultRef == "" {
				continue
			}
			finished++
			if got, err := objects.Get(st.ResultRef); err != nil || string(got) != string(want) {
				t.Errorf("round %d: task %s: result ref %s: %d bytes, %v", round, st.TaskID, st.ResultRef, len(got), err)
			}
		}
	}
	entries, err := os.ReadDir(objectsDir)
	if err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".put-") {
			t.Errorf("round %d: interrupted put left %s behind", round, e.Name())
		}
	}
	t.Logf("round %d: %d tasks acknowledged, %d finished (%d inline, %d inline still queued), %d objects on disk: all references resolve, every inline result matches",
		round, len(acked), finished, inline, queued, len(entries))
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if os.Getenv("GC_CRASH") == "" {
		t.Skip("crash-recovery suite skipped: set GC_CRASH=1 (or run `make crash`)")
	}
	bin := buildWebservice(t)
	dataDir := t.TempDir()
	httpAddr := freeAddr(t)
	brokerAddr := freeAddr(t)
	objectsAddr := freeAddr(t)

	ws := startWS(t, bin, httpAddr, brokerAddr, objectsAddr, dataDir)
	defer func() { ws.kill() }()

	// Registrations land in the WAL: both must survive every crash below.
	client := newClient(httpAddr, ws.token)
	fn, err := client.RegisterFunction(protocol.KindPython, []byte(`{"entrypoint":"identity"}`))
	if err != nil {
		t.Fatalf("register function: %v", err)
	}
	reg, err := client.RegisterEndpoint(webservice.RegisterEndpointRequest{Name: "crash-ep"})
	if err != nil {
		t.Fatalf("register endpoint: %v", err)
	}
	ep := reg.EndpointID
	if err := client.Heartbeat(ep, true, nil, nil); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}

	// The endpoint agent lives in the test process and talks to the broker
	// over TCP through the tree's one dialer (reconnecting, batched,
	// binary codec): kills drop the stream, recovery redelivers unacked
	// tasks, and the subscription transparently resubscribes.
	conn, err := broker.Connect(reg.BrokerAddr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sub, err := conn.Subscribe(reg.TaskQueue, 16)
	if err != nil {
		t.Fatal(err)
	}
	objects := objectstore.NewClient(reg.ObjectsAddr)
	go func() {
		for m := range sub.Messages() {
			// A worker a little slower than the storm, so a backlog of
			// queued tasks, inline ones among them, crosses every kill.
			time.Sleep(3 * time.Millisecond)
			task, err := protocol.DecodeTask(m.Body)
			if err != nil {
				_ = sub.Ack(m.Tag)
				continue
			}
			payload := task.Payload
			if task.PayloadRef != "" {
				data, err := objects.Get(task.PayloadRef)
				if err != nil {
					// Object store mid-crash: leave the delivery unacked;
					// the recovered broker redelivers and the (recovered,
					// file-backed) store resolves the reference then.
					continue
				}
				payload = data
			}
			res := protocol.Result{
				TaskID: task.ID, State: protocol.StateSuccess,
				Output: payload, EndpointID: ep,
				Started: time.Now(), Completed: time.Now(),
			}
			body := protocol.EncodeResult(&res)
			if err := conn.PublishBatch(reg.ResultQueue, [][]byte{body}, nil); err != nil {
				// Broker mid-crash: leave the delivery unacked; the
				// recovered broker redelivers it and we try again.
				continue
			}
			// Stale tags after a reconnect fail harmlessly — the task
			// redelivers and the service dedupes the duplicate result
			// through its state machine.
			_ = sub.Ack(m.Tag)
		}
	}()

	// Task storm: submit continuously, tolerating the windows where the
	// service is dead. Only IDs the service acknowledged count — those are
	// the ones durability must not lose.
	var (
		mu       sync.Mutex
		ids      []protocol.UUID
		payloads = map[protocol.UUID][]byte{} // what each acknowledged task spilled
		curTok   = ws.token
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		// storm is read-held around each submit; the post-restart object
		// check write-locks it so no put is legitimately in flight.
		storm sync.RWMutex
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			tok := curTok
			mu.Unlock()
			c := sdk.NewClient(httpAddr, tok) // fresh client per round: the token changes across restarts
			c.MaxRetries = -1                 // the loop itself is the retry
			batch := make([]webservice.SubmitRequest, batchSize)
			// Every other batch is padded past the spill threshold, so its
			// payloads cross as object-store references; the rest travel
			// inline, in the queued message only.
			pad := ""
			if seq%2 == 0 {
				pad = strings.Repeat("x", 2*spillThreshold)
			}
			for i := range batch {
				batch[i] = webservice.SubmitRequest{
					EndpointID: ep, FunctionID: fn,
					Payload: []byte(fmt.Sprintf(`"storm-%d-%d-%s"`, seq, i, pad)),
				}
			}
			seq++
			storm.RLock()
			got, err := c.SubmitBatch(batch)
			mu.Lock()
			ids = append(ids, got...)
			for i, id := range got {
				payloads[id] = batch[i].Payload
			}
			mu.Unlock()
			storm.RUnlock()
			if err != nil {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			time.Sleep(15 * time.Millisecond)
		}
	}()

	// The storm: SIGKILL the whole cloud mid-flight, restart it over the
	// same data dir, and let WAL replay put the world back.
	for round := 1; round <= kills; round++ {
		time.Sleep(700 * time.Millisecond)
		ws.kill()
		ws = startWS(t, bin, httpAddr, brokerAddr, objectsAddr, dataDir)
		mu.Lock()
		curTok = ws.token
		mu.Unlock()
		// The auth service is deliberately in-memory (tokens are not
		// durable state), so re-mark the endpoint online with a fresh one.
		if err := newClient(httpAddr, ws.token).Heartbeat(ep, true, nil, nil); err != nil {
			t.Fatalf("post-restart heartbeat (round %d): %v", round, err)
		}
		// The data plane recovered too: with the storm held off, every
		// object an acknowledged task references is there, and the put the
		// kill interrupted left no temp file behind.
		storm.Lock()
		mu.Lock()
		acked := append([]protocol.UUID(nil), ids...)
		mu.Unlock()
		checkObjects(t, round, newClient(httpAddr, ws.token), objects, acked, payloads, filepath.Join(dataDir, "objects"))
		storm.Unlock()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	mu.Lock()
	all := append([]protocol.UUID(nil), ids...)
	tok := curTok
	mu.Unlock()
	if len(all) < minSubmitted {
		t.Fatalf("storm only landed %d tasks (want >= %d); kills too aggressive", len(all), minSubmitted)
	}
	t.Logf("storm submitted %d tasks across %d lives", len(all), kills+1)

	// Every acknowledged task must reach a terminal state...
	vc := newClient(httpAddr, tok)
	firstTerminal := make(map[protocol.UUID]protocol.TaskState, len(all))
	poll := func() (pending int) {
		for start := 0; start < len(all); start += 100 {
			end := start + 100
			if end > len(all) {
				end = len(all)
			}
			sts, err := vc.TaskStatuses(all[start:end])
			if err != nil {
				t.Fatalf("batch status: %v", err)
			}
			for _, st := range sts {
				if !st.State.Terminal() {
					pending++
					continue
				}
				if prev, ok := firstTerminal[st.TaskID]; ok && prev != st.State {
					t.Fatalf("task %s changed terminal state: %s -> %s", st.TaskID, prev, st.State)
				}
				firstTerminal[st.TaskID] = st.State
			}
		}
		return pending
	}
	deadline := time.Now().Add(90 * time.Second)
	for {
		pending := poll()
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d tasks never reached a terminal state after recovery", pending, len(all))
		}
		time.Sleep(100 * time.Millisecond)
	}
	// ... and exactly one: re-poll to confirm no terminal state flips.
	for i := 0; i < 3; i++ {
		time.Sleep(100 * time.Millisecond)
		poll()
	}
	states := map[protocol.TaskState]int{}
	for _, st := range firstTerminal {
		states[st]++
	}
	t.Logf("terminal states: %v", states)
	if states[protocol.StateSuccess] != len(all) {
		t.Errorf("want all %d tasks Success, got %v", len(all), states)
	}
	// The tasks that were still queued at the last check crossed a kill
	// too: their results are checked the same way.
	checkObjects(t, kills+1, vc, objects, all, payloads, filepath.Join(dataDir, "objects"))

	// The recovery path itself must have run: the durable registries count
	// replayed WAL records, exported on /metrics of the current life.
	resp, err := http.Get("http://" + httpAddr + "/metrics?token=" + tok)
	if err != nil {
		t.Fatalf("scrape metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m := regexp.MustCompile(`gc_durable_wal_replayed_total (\d+)`).FindStringSubmatch(string(body))
	if m == nil {
		t.Fatalf("gc_durable_wal_replayed_total missing from /metrics")
	}
	if m[1] == "0" {
		t.Errorf("wal_replayed_total = 0: the final life recovered nothing, suite proved nothing")
	}
	for _, series := range []string{"gc_durable_wal_appends_total", "gc_durable_wal_fsync_seconds", "gc_durable_snapshot_age_seconds"} {
		if !strings.Contains(string(body), series) {
			t.Errorf("expected %s on /metrics", series)
		}
	}
}
