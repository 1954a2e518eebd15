// Package e2e builds the actual command binaries and drives them as
// separate OS processes: gc-webservice serving the cloud, gc-endpoint and
// gc-mep attaching over TCP, and the SDK submitting real tasks — the full
// deployment topology, nothing in-process.
package e2e

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
)

// binaries builds the three commands once per test binary.
var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

func buildBinaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "gc-e2e-*")
		if buildErr != nil {
			return
		}
		for _, name := range []string{"gc-webservice", "gc-endpoint", "gc-mep"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, name), "globuscompute/cmd/"+name)
			cmd.Dir = repoRoot()
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = fmt.Errorf("build %s: %v\n%s", name, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildDir
}

// TestMain removes the built binaries once every test has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
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

// process wraps a child with line-scanning helpers.
type process struct {
	cmd   *exec.Cmd
	lines chan string
	buf   []string
	mu    sync.Mutex
}

func startProcess(t *testing.T, bin string, args ...string) *process {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout // interleave; both scanned
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &process{cmd: cmd, lines: make(chan string, 256)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.buf = append(p.buf, line)
			p.mu.Unlock()
			select {
			case p.lines <- line:
			default:
			}
		}
		close(p.lines)
	}()
	t.Cleanup(func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
	return p
}

// waitMatch scans output lines for a regex and returns the first submatch.
func (p *process) waitMatch(t *testing.T, pattern string, timeout time.Duration) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	// Replay lines already captured.
	p.mu.Lock()
	for _, line := range p.buf {
		if m := re.FindStringSubmatch(line); m != nil {
			p.mu.Unlock()
			return m[1]
		}
	}
	p.mu.Unlock()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("process exited before matching %q; output:\n%s", pattern, p.dump())
			}
			if m := re.FindStringSubmatch(line); m != nil {
				return m[1]
			}
		case <-deadline:
			t.Fatalf("timed out matching %q; output:\n%s", pattern, p.dump())
		}
	}
}

func (p *process) dump() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.buf, "\n")
}

// TestBinariesTLSBroker runs the deployment with the AMQPS-equivalent TLS
// broker: the service writes a CA file, the endpoint pins it.
func TestBinariesTLSBroker(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e skipped in -short mode")
	}
	bins := buildBinaries(t)
	caPath := filepath.Join(t.TempDir(), "broker-ca.pem")

	ws := startProcess(t, filepath.Join(bins, "gc-webservice"),
		"-http", "127.0.0.1:0", "-broker", "127.0.0.1:0", "-objects", "127.0.0.1:0",
		"-broker-tls", "-broker-ca-out", caPath)
	api := ws.waitMatch(t, `REST API:\s+http://(\S+)`, 15*time.Second)
	token := ws.waitMatch(t, `bootstrap token \([^)]*\): (\S+)`, 15*time.Second)

	ep := startProcess(t, filepath.Join(bins, "gc-endpoint"),
		"-service", api, "-token", token, "-name", "tls-ep", "-broker-ca", caPath)
	epID := ep.waitMatch(t, `gc-endpoint registered: (\S+)`, 15*time.Second)
	ep.waitMatch(t, `(online); waiting for tasks`, 15*time.Second)

	client := sdk.NewClient(api, token)
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: client, EndpointID: protocol.UUID(epID),
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	fut, err := ex.SubmitShell(sdk.NewShellFunction("echo over-tls"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sr, err := fut.ShellResult(ctx)
	if err != nil {
		t.Fatalf("%v\nendpoint output:\n%s", err, ep.dump())
	}
	if sr.Stdout != "over-tls" {
		t.Errorf("stdout = %q", sr.Stdout)
	}
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e skipped in -short mode")
	}
	bins := buildBinaries(t)

	// Cloud.
	ws := startProcess(t, filepath.Join(bins, "gc-webservice"),
		"-http", "127.0.0.1:0", "-broker", "127.0.0.1:0", "-objects", "127.0.0.1:0")
	api := ws.waitMatch(t, `REST API:\s+http://(\S+)`, 15*time.Second)
	token := ws.waitMatch(t, `bootstrap token \([^)]*\): (\S+)`, 15*time.Second)

	// Single-user endpoint agent, TCP engine transport.
	ep := startProcess(t, filepath.Join(bins, "gc-endpoint"),
		"-service", api, "-token", token, "-name", "e2e-ep", "-transport", "tcp")
	epID := ep.waitMatch(t, `gc-endpoint registered: (\S+)`, 15*time.Second)
	ep.waitMatch(t, `(online); waiting for tasks`, 15*time.Second)

	// Submit a shell task through the SDK (polling mode: no broker client
	// needed in the test process).
	client := sdk.NewClient(api, token)
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client:       client,
		EndpointID:   protocol.UUID(epID),
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	fut, err := ex.SubmitShell(sdk.NewShellFunction("echo from-separate-process"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sr, err := fut.ShellResult(ctx)
	if err != nil {
		t.Fatalf("%v\nendpoint output:\n%s", err, ep.dump())
	}
	if sr.Stdout != "from-separate-process" {
		t.Errorf("stdout = %q", sr.Stdout)
	}

	// Multi-user endpoint in its own process.
	mep := startProcess(t, filepath.Join(bins, "gc-mep"),
		"-service", api, "-token", token, "-name", "e2e-mep", "-idle-timeout", "0")
	mepID := mep.waitMatch(t, `gc-mep registered: (\S+)`, 15*time.Second)
	mep.waitMatch(t, `(online); .*waiting for start-endpoint requests`, 15*time.Second)

	ex2, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client:       client,
		EndpointID:   protocol.UUID(mepID),
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex2.Close()
	ex2.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "e2e"}
	fut2, err := ex2.SubmitShell(sdk.NewShellFunction("echo user=$GC_LOCAL_USER"), nil)
	if err != nil {
		t.Fatal(err)
	}
	sr2, err := fut2.ShellResult(ctx)
	if err != nil {
		t.Fatalf("%v\nmep output:\n%s", err, mep.dump())
	}
	if sr2.Stdout != "user=demo" { // demo@example.edu maps to its local part
		t.Errorf("stdout = %q", sr2.Stdout)
	}

	// The service reports the whole fleet.
	usage, err := client.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if usage.Endpoints < 3 || usage.MultiUserEPs != 1 || usage.UserEndpoints != 1 {
		t.Errorf("usage = %+v", usage)
	}
}

// TestBinariesMEPUserEndpointAdds runs the cloud and a multi-user endpoint
// and nothing else: a task submitted to gc-mep spawns a user endpoint on
// gc-mep's broker connection, and add(40, 2) comes back as 42.
func TestBinariesMEPUserEndpointAdds(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e skipped in -short mode")
	}
	bins := buildBinaries(t)
	ws := startProcess(t, filepath.Join(bins, "gc-webservice"),
		"-http", "127.0.0.1:0", "-broker", "127.0.0.1:0", "-objects", "127.0.0.1:0")
	api := ws.waitMatch(t, `REST API:\s+http://(\S+)`, 15*time.Second)
	token := ws.waitMatch(t, `bootstrap token \([^)]*\): (\S+)`, 15*time.Second)
	mep := startProcess(t, filepath.Join(bins, "gc-mep"),
		"-service", api, "-token", token, "-name", "codec-mep", "-idle-timeout", "0")
	mepID := mep.waitMatch(t, `gc-mep registered: (\S+)`, 15*time.Second)
	mep.waitMatch(t, `(online); .*waiting for start-endpoint requests`, 15*time.Second)

	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client:       sdk.NewClient(api, token),
		EndpointID:   protocol.UUID(mepID),
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "e2e"}
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "add"}, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := fut.ResultWithin(60 * time.Second); err != nil || string(out) != "42" {
		t.Fatalf("add via user endpoint = %q, %v\nmep output:\n%s", out, err, mep.dump())
	}
}
