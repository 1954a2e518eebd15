package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/protocol"
)

// traceData is what a traced pass records on top of an untraced one: a span
// set per task taken at the layer boundaries the benchmark can see from
// outside the program, the HTTP submit round trips, and counter deltas
// scraped from the two /metrics endpoints around the measured window.
type traceData struct {
	spans        []taskSpan
	submitCallUS []float64 // time inside Executor.Submit, per offered task
	transport    timingTransport
	httpSent     int64
	httpRecv     int64
	// wsDelta and epDelta are end-minus-start values of the webservice's and
	// the agent's metric series; wsEnd and epEnd the values at the end.
	wsDelta, epDelta map[string]float64
	wsEnd, epEnd     map[string]float64
	depthTasksMax    float64
}

// taskSpan holds one task's boundary timestamps in ns since the Unix epoch.
// All clocks are the host's, so spans from three processes line up.
type taskSpan struct {
	index      int
	class      uint8
	due        int64 // open loop: due time; closed loop: submit call
	started    int64 // Result.Started: a worker picked the task up
	completed  int64 // Result.Completed
	resolved   int64 // the reaper saw the future resolved
	queueDelay int64 // Result.QueueDelay, ns waiting inside the engine
}

func newTraceData(n int) *traceData {
	return &traceData{spans: make([]taskSpan, 0, n), submitCallUS: make([]float64, 0, n)}
}

func (tr *traceData) record(it inflight, res protocol.Result, resolved time.Time) {
	tr.spans = append(tr.spans, taskSpan{
		index: it.i, class: it.t.class,
		due: it.due.UnixNano(), started: res.Started.UnixNano(),
		completed: res.Completed.UnixNano(), resolved: resolved.UnixNano(),
		queueDelay: int64(res.QueueDelay),
	})
}

// stage returns the sorted durations in ms of one span stage, optionally for
// a single payload class (class < 0 means all).
func (tr *traceData) stage(class int, d func(taskSpan) int64) []float64 {
	out := make([]float64, 0, len(tr.spans))
	for _, s := range tr.spans {
		if class < 0 || int(s.class) == class {
			out = append(out, float64(d(s))/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// writeSpans writes the recorded spans as JSON lines.
func (tr *traceData) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range tr.spans {
		fmt.Fprintf(w, `{"task":%d,"class":%d,"due_ns":%d,"started_ns":%d,"completed_ns":%d,"resolved_ns":%d,"queue_delay_ns":%d}`+"\n",
			s.index, s.class, s.due, s.started, s.completed, s.resolved, s.queueDelay)
	}
	for _, ms := range tr.transport.snapshot() {
		fmt.Fprintf(w, `{"span":"sdk.http_submit","ms":%g}`+"\n", ms)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingTransport times POST /v2/submit round trips on the SDK client's HTTP
// transport: the client-side view of auth + admission + statestore + WAL +
// publish.
type timingTransport struct {
	base      http.RoundTripper
	mu        sync.Mutex
	recording bool // only the measured load is recorded, not the warm-up
	submitMS  []float64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != "/v2/submit" {
		return t.base.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	ms := float64(time.Since(t0)) / 1e6
	t.mu.Lock()
	if t.recording {
		t.submitMS = append(t.submitMS, ms)
	}
	t.mu.Unlock()
	return resp, err
}

func (t *timingTransport) record(on bool) {
	t.mu.Lock()
	t.recording = on
	t.mu.Unlock()
}

func (t *timingTransport) snapshot() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.submitMS...)
}

// metricsSampler scrapes both /metrics endpoints before and after the
// measured window and samples the task queue's depth at 10 Hz in between.
type metricsSampler struct {
	hc           *http.Client
	wsURL, epURL string
	ws0, ep0     map[string]float64
	depthSeries  string
	depthMax     float64
	stopCh       chan struct{}
	done         chan struct{}
}

func startSampler(st *stack) (*metricsSampler, error) {
	s := &metricsSampler{
		hc:     &http.Client{Timeout: 5 * time.Second},
		wsURL:  "http://" + st.ws.httpAddr + "/metrics?token=" + st.ws.token,
		epURL:  "http://" + st.ep.metricsAddr + "/metrics",
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.depthSeries = "gc_broker_depth_tasks_" + strings.ReplaceAll(string(st.ep.id), "-", "_")
	var err error
	if s.ws0, err = scrapeMetrics(s.hc, s.wsURL); err != nil {
		return nil, err
	}
	if s.ep0, err = scrapeMetrics(s.hc, s.epURL); err != nil {
		return nil, err
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				if m, err := scrapeMetrics(s.hc, s.wsURL); err == nil {
					s.depthMax = max(s.depthMax, m[s.depthSeries])
				}
			}
		}
	}()
	return s, nil
}

// stop ends the sampling and stores the deltas in tr.
func (s *metricsSampler) stop(tr *traceData) {
	close(s.stopCh)
	<-s.done
	tr.depthTasksMax = s.depthMax
	tr.wsEnd, _ = scrapeMetrics(s.hc, s.wsURL)
	tr.epEnd, _ = scrapeMetrics(s.hc, s.epURL)
	tr.wsDelta = delta(s.ws0, tr.wsEnd)
	tr.epDelta = delta(s.ep0, tr.epEnd)
	s.hc.CloseIdleConnections()
}

// delta is after-before for every series in after; series that first appear
// during the window (counters are created on first use) count from zero.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sumSuffix adds up every series whose name starts with prefix and ends with
// suffix (per-queue broker counters carry the queue name in between).
func sumSuffix(m map[string]float64, prefix, suffix string) float64 {
	total := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			total += v
		}
	}
	return total
}
