package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
)

// buildBinaries compiles the commit's own gc-webservice and gc-endpoint into
// dir, once per invocation. The go build cache makes repeat builds cheap.
func buildBinaries(dir string) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	// Import paths, not ./cmd/..., so the build works from any directory of
	// the module (go test runs in the package's own).
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"globuscompute/cmd/gc-webservice", "globuscompute/cmd/gc-endpoint")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build: %w\n%s", err, stderr.String())
	}
	return time.Since(start), nil
}

// children tracks every process the benchmark started, so that exit, a
// signal, a panic or a timeout can kill all of them.
var children struct {
	mu    sync.Mutex
	procs map[*child]struct{}
}

// child is one gc-webservice or gc-endpoint process in its own process group.
type child struct {
	cmd   *exec.Cmd
	lines chan string // stdout, line by line; closed at EOF
	log   *os.File
	once  sync.Once
}

func startChild(logPath, bin string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	c := &child{cmd: cmd, lines: make(chan string, 64), log: logf}
	children.mu.Lock()
	if children.procs == nil {
		children.procs = make(map[*child]struct{})
	}
	children.procs[c] = struct{}{}
	children.mu.Unlock()
	go func() {
		defer close(c.lines)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case c.lines <- sc.Text():
			default: // nobody is waiting for banner lines any more
			}
		}
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill SIGKILLs the child's process group and waits until it has ended.
func (c *child) kill() {
	c.once.Do(func() {
		_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
		_ = c.cmd.Wait()
		c.log.Close()
		children.mu.Lock()
		delete(children.procs, c)
		children.mu.Unlock()
	})
}

func killAllChildren() {
	children.mu.Lock()
	procs := make([]*child, 0, len(children.procs))
	for c := range children.procs {
		procs = append(procs, c)
	}
	children.mu.Unlock()
	for _, c := range procs {
		c.kill()
	}
}

// expect reads the child's stdout until every prefix has been seen and
// returns the rest of each matching line.
func (c *child) expect(timeout time.Duration, prefixes ...string) ([]string, error) {
	got := make([]string, len(prefixes))
	missing := len(prefixes)
	deadline := time.After(timeout)
	for missing > 0 {
		select {
		case line, ok := <-c.lines:
			if !ok {
				return nil, fmt.Errorf("%s exited before printing %q", filepath.Base(c.cmd.Path), prefixes)
			}
			for i, p := range prefixes {
				if got[i] == "" && strings.HasPrefix(line, p) {
					got[i] = strings.TrimSpace(line[len(p):])
					missing--
				}
			}
		case <-deadline:
			return nil, fmt.Errorf("%s: timed out waiting for %q", filepath.Base(c.cmd.Path), prefixes)
		}
	}
	return got, nil
}

// wsProc is a running gc-webservice child and its advertised addresses.
type wsProc struct {
	*child
	httpAddr, brokerAddr, objectsAddr, token string
	spawned                                  time.Time
}

// startWebservice runs gc-webservice with the benchmark's common flags.
// dataDir is empty for the in-memory workload.
func startWebservice(binDir, runDir, dataDir string) (*wsProc, error) {
	args := []string{
		"-http", "127.0.0.1:0", "-broker", "127.0.0.1:0", "-objects", "127.0.0.1:0",
		"-admit-rate", "1000000", "-snapshot-every", "1h",
	}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	spawned := time.Now()
	c, err := startChild(filepath.Join(runDir, fmt.Sprintf("webservice-%d.log", spawned.UnixNano())),
		filepath.Join(binDir, "gc-webservice"), args...)
	if err != nil {
		return nil, err
	}
	// Recovery of a large WAL happens before the banner, hence the long wait.
	got, err := c.expect(90*time.Second, "  REST API:     http://", "  broker:", "  object store:", "  bootstrap token (demo@example.edu):")
	if err != nil {
		c.kill()
		return nil, err
	}
	return &wsProc{child: c, httpAddr: got[0], brokerAddr: got[1], objectsAddr: got[2], token: got[3], spawned: spawned}, nil
}

// endpointProc is a running gc-endpoint child.
type endpointProc struct {
	*child
	id          protocol.UUID
	metricsAddr string
}

func startEndpoint(binDir, runDir string, ws *wsProc) (*endpointProc, error) {
	metricsAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	sandbox := filepath.Join(runDir, "sandbox")
	if err := os.MkdirAll(sandbox, 0o755); err != nil {
		return nil, err
	}
	c, err := startChild(filepath.Join(runDir, fmt.Sprintf("endpoint-%d.log", time.Now().UnixNano())),
		filepath.Join(binDir, "gc-endpoint"),
		"-service", ws.httpAddr, "-token", ws.token, "-workers", "4",
		"-metrics-addr", metricsAddr, "-sandbox-root", sandbox)
	if err != nil {
		return nil, err
	}
	got, err := c.expect(30*time.Second, "gc-endpoint registered:", "gc-endpoint online")
	if err != nil {
		c.kill()
		return nil, err
	}
	return &endpointProc{child: c, id: protocol.UUID(got[0]), metricsAddr: metricsAddr}, nil
}

// freeAddr picks a loopback port that was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// stack is one deployment under test plus the benchmark's single client:
// one keep-alive HTTP connection and one broker connection.
type stack struct {
	ws      *wsProc
	ep      *endpointProc
	client  *sdk.Client
	bc      *broker.Client
	ex      *sdk.Executor
	dataDir string
	setup   time.Duration   // spawn of gc-webservice -> last warm-up result
	warmIDs []protocol.UUID // the last warm-up tasks, oldest first
}

// oneConnTransport keeps the SDK client on a single keep-alive connection.
func oneConnTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
}

// newClient builds the SDK client the load uses. Retries are off so that a
// shed or a failed submit is counted, not hidden behind a backoff.
func newClient(ws *wsProc, rt http.RoundTripper) *sdk.Client {
	c := sdk.NewClient(ws.httpAddr, ws.token)
	c.MaxRetries = -1
	c.HTTP = &http.Client{Timeout: 30 * time.Second, Transport: rt}
	return c
}

// startStack boots webservice + endpoint, connects the executor exactly as
// cmd/gc-endpoint dials the broker (batching + binary codec), and runs the
// warm-up. wrap, when non-nil, wraps the HTTP transport (traced runs).
func startStack(binDir, runDir, dataDir string, warmup int, wrap func(http.RoundTripper) http.RoundTripper) (*stack, error) {
	ws, err := startWebservice(binDir, runDir, dataDir)
	if err != nil {
		return nil, err
	}
	st := &stack{ws: ws, dataDir: dataDir}
	ep, err := startEndpoint(binDir, runDir, ws)
	if err != nil {
		st.stop()
		return nil, err
	}
	st.ep = ep
	var rt http.RoundTripper = oneConnTransport()
	if wrap != nil {
		rt = wrap(rt)
	}
	st.client = newClient(ws, rt)
	bc, err := broker.Dial(ws.brokerAddr)
	if err != nil {
		st.stop()
		return nil, fmt.Errorf("dial broker: %w", err)
	}
	bc.EnableBatching(broker.BatchConfig{})
	bc.EnableBinary()
	st.bc = bc
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: st.client, EndpointID: ep.id, Conn: bc.AsConn(),
		Objects: objectstore.NewClient(ws.objectsAddr),
	})
	if err != nil {
		st.stop()
		return nil, err
	}
	st.ex = ex
	if st.warmIDs, err = warmUp(ex, warmup); err != nil {
		st.stop()
		return nil, err
	}
	st.setup = time.Since(ws.spawned)
	return st, nil
}

// stop closes the client side and kills both children.
func (st *stack) stop() {
	if st.ex != nil {
		st.ex.Close()
	}
	if st.bc != nil {
		st.bc.Close()
	}
	if st.client != nil {
		st.client.HTTP.CloseIdleConnections()
	}
	if st.ep != nil {
		st.ep.kill()
	}
	if st.ws != nil {
		st.ws.kill()
	}
}

// warmUp runs n sequential add tasks, checks each sum, and returns the IDs
// of the last statusIDs of them.
func warmUp(ex *sdk.Executor, n int) ([]protocol.UUID, error) {
	var ids []protocol.UUID
	for i := 0; i < n; i++ {
		t := task{kind: kindAdd, a: int64(i), b: 1}
		fut, err := t.submit(ex)
		if err != nil {
			return nil, fmt.Errorf("warm-up submit %d: %w", i, err)
		}
		out, err := fut.ResultWithin(10 * time.Second)
		if err != nil {
			return nil, fmt.Errorf("warm-up task %d: %w", i, err)
		}
		if !t.check(out) {
			return nil, fmt.Errorf("warm-up task %d: wrong output %q", i, out)
		}
		if i >= n-statusIDs {
			id, _ := fut.TaskID(context.Background()) // resolved, so set
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// procCPU returns user+system CPU seconds a process has used, from
// /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(data))
}

// clockTicksPerSecond is USER_HZ, fixed at 100 on Linux.
const clockTicksPerSecond = 100

// parseProcStatCPU extracts utime+stime (fields 14 and 15). The command name
// in field 2 may hold spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad utime/stime")
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatusKB(string(data), "VmHWM")
}

// parseProcStatusKB reads a "Key:   123 kB" line of /proc/<pid>/status and
// returns the value in MB (2^20 bytes).
func parseProcStatusKB(status, key string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: bad %s line %q", key, line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: bad %s value %q", key, f[0])
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// dirBytes sums the sizes of the regular files under dir (0 if absent).
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// freeDiskBytes reports the space available to this user on dir's filesystem.
func freeDiskBytes(dir string) (uint64, error) {
	var fsStat syscall.Statfs_t
	if err := syscall.Statfs(dir, &fsStat); err != nil {
		return 0, err
	}
	return fsStat.Bavail * uint64(fsStat.Bsize), nil
}

// scrapeMetrics fetches a Prometheus text page and returns its samples by
// full series name (labels included).
func scrapeMetrics(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(data)), nil
}

// parseMetrics reads Prometheus text into series -> value. It is the
// benchmark's own few lines rather than obs.ParseExposition, so that a change
// to the program's observability code cannot change how it is measured.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
