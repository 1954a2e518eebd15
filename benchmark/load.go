package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
)

const (
	warmupTasks = 500
	// resolveDeadline is how long after the last submit a task may stay
	// unresolved before it counts as failed.
	resolveDeadline = 5 * time.Second
	// workloadTimeout fails a workload that would otherwise hang.
	workloadTimeout = 120 * time.Second
	statusIDs       = 128
	// maxGenLagP99 invalidates an open-loop run whose generator ran late
	// (see typicalLagP99).
	maxGenLagP99 = 2 * time.Millisecond
	// windowLength is the span each gated figure is first computed over (see
	// bestQuartile).
	windowLength = time.Second
	// quietWindowLength is the span of the windows the open-loop latency is
	// taken over (see quietestMedian).
	quietWindowLength = 250 * time.Millisecond
)

// passOptions says how to run one workload once.
type passOptions struct {
	w       workload
	seed    int64
	seconds int
	traced  bool
	// setups is how many times the stack is set up; setup_s is the median
	// and the load runs against the last one.
	setups  int
	warmup  int
	binDir  string
	workDir string
}

// window is one windowLength slice of a stack's measured load.
type window struct {
	tasks   int // resolved correctly within the window
	seconds float64
	rttP50  float64 // ms, over the tasks resolved within the window
	cpuS    float64 // CPU seconds of webservice + endpoint + client
}

// pass is everything one run of one workload measured. The gated rates,
// latencies and CPU cost are taken over the load's one-second windows (see
// bestQuartile); tails and counts are over all tasks.
type pass struct {
	w         workload
	offered   int // tasks the workload should offer
	attempted int // tasks offered
	correct   int // tasks resolved with the right output
	failed    int // submit errors, sheds, wrong/failed/unresolved/lost tasks, failed reads
	wallS     float64
	windows   []window
	rttMS     []float64 // sorted; due (open loop) or submit (closed loop) -> resolved
	// quietRTT is the open-loop latency the run reports: the lowest
	// quarter-second median (see quietestMedian). 0 on a closed loop.
	quietRTT float64
	statusMS []float64 // sorted
	genLagMS []float64 // sorted; open loop only
	// typicalLagMS is the best-quartile second's p99 generator lag, the
	// validity test.
	typicalLagMS float64
	userBytes    int64

	setupS []float64 // one per set-up

	cpuWS, cpuEP, cpuClient float64 // CPU seconds over the measured load
	rssWS, rssEP            float64 // VmHWM, MB
	recoveryS               float64

	tasksOnDisk                                   int // warm-up included
	diskBytes, diskState, diskBroker, diskObjects int64
	replayedRecords                               float64

	invalid string // why the run does not count, "" when valid
	trace   *traceData
}

// bestQuartile is the boundary of the best quarter of the pass's windows
// under f: the 75th percentile window when higher is better, the 25th when
// lower is. On a shared two-core host, neighbours only ever slow a window
// down, for seconds to minutes at a time; over 8 identical runs the median
// window's throughput on sat-mem spread 8.9 % (quartile distance over median)
// and the best-quartile window's 4.4 %, the median window's rtt_p50 on
// steady-small 10 % and the best quartile's 5.9 %. A change to the code moves
// every window, the best quarter included; a stall that hits fewer than
// three windows in four does not move it, which is why the whole-run figures
// are printed beside it.
func (p *pass) bestQuartile(higherIsBetter bool, f func(window) float64) float64 {
	vals := make([]float64, len(p.windows))
	for i, w := range p.windows {
		vals[i] = f(w)
	}
	sort.Float64s(vals)
	if higherIsBetter {
		return percentile(vals, 0.75)
	}
	return percentile(vals, 0.25)
}

func (p *pass) perKTask(v float64) float64 {
	if p.correct == 0 {
		return 0
	}
	return v / (float64(p.correct) / 1000)
}

func (p *pass) perTask(v float64) float64 { return p.perKTask(v) / 1000 }

// runPassTimed runs the pass under the hard per-workload timeout.
func runPassTimed(o passOptions) (*pass, error) {
	type outcome struct {
		p   *pass
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		p, err := runPass(o)
		done <- outcome{p, err}
	}()
	select {
	case r := <-done:
		return r.p, r.err
	case <-time.After(workloadTimeout):
		killAllChildren()
		return nil, fmt.Errorf("%s: no result after %s, children killed", o.w.name, workloadTimeout)
	}
}

func runPass(o passOptions) (*pass, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(o.workDir, o.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	if o.w.minFreeDisk > 0 {
		free, err := freeDiskBytes(runDir)
		if err != nil {
			return nil, err
		}
		if free < o.w.minFreeDisk {
			return nil, fmt.Errorf("%s needs %d MB free under %s, found %d MB", o.w.name, o.w.minFreeDisk>>20, o.workDir, free>>20)
		}
	}

	p := &pass{w: o.w, offered: o.w.taskCount(o.seconds)}
	var wrap func(http.RoundTripper) http.RoundTripper
	if o.traced {
		tr := newTraceData(p.offered)
		p.trace = tr
		wrap = func(rt http.RoundTripper) http.RoundTripper {
			tr.transport.base = rt
			return &tr.transport
		}
	}
	var st *stack
	for i := 0; i < o.setups; i++ {
		dataDir := ""
		if o.w.durable {
			dataDir = filepath.Join(runDir, fmt.Sprintf("data-%d", i))
		}
		st, err = startStack(o.binDir, runDir, dataDir, o.warmup, wrap)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", o.w.name, i, err)
		}
		p.setupS = append(p.setupS, st.setup.Seconds())
		if i < o.setups-1 {
			st.stop()
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
	}
	defer st.stop()

	acked, err := runLoad(st, o, p)
	if err != nil {
		return nil, err
	}
	p.rssWS, _ = procPeakRSS(st.ws.pid())
	p.rssEP, _ = procPeakRSS(st.ep.pid())
	if st.dataDir != "" {
		p.diskState = dirBytes(filepath.Join(st.dataDir, "state"))
		p.diskBroker = dirBytes(filepath.Join(st.dataDir, "broker"))
		p.diskObjects = dirBytes(filepath.Join(st.dataDir, "objects"))
		p.diskBytes = dirBytes(st.dataDir)
	}
	if o.w.restart {
		if err := restartAndVerify(st, o, p, acked); err != nil {
			return nil, err
		}
	}

	if o.w.openRate > 0 {
		p.typicalLagMS = typicalLagP99(p.genLagMS, o.w.openRate)
		if p.typicalLagMS > float64(maxGenLagP99)/1e6 {
			p.invalid = fmt.Sprintf("generator lag p99 %.3f ms in the best quarter of the seconds exceeds %s", p.typicalLagMS, maxGenLagP99)
		}
		if p.attempted != p.offered {
			p.invalid = fmt.Sprintf("offered %d of %d tasks", p.attempted, p.offered)
		}
	}
	sort.Float64s(p.rttMS)
	sort.Float64s(p.statusMS)
	sort.Float64s(p.genLagMS)
	return p, nil
}

// typicalLagP99 is the lower quartile, over consecutive seconds of the
// schedule, of each second's p99 generator lag (lags are in slot order,
// perSecond slots to a second). A generator that cannot keep pace is late in
// every second. A host that freezes for a quarter of a second makes the whole
// run's p99 read 60 ms (seen once in thirty runs), and a host that is busy for
// minutes made the median second read 1.4 ms where a quiet one reads 0.6 ms,
// without the generator being at fault; the due-time latencies already carry
// those stalls.
func typicalLagP99(lags []float64, perSecond int) float64 {
	var perWindow []float64
	for lo := 0; lo+perSecond <= len(lags); lo += perSecond {
		perWindow = append(perWindow, percentile(sortedCopy(lags[lo:lo+perSecond]), 0.99))
	}
	if len(perWindow) == 0 {
		return percentile(sortedCopy(lags), 0.99)
	}
	return percentile(sortedCopy(perWindow), 0.25)
}

// quietestMedian cuts the resolutions (in resolve order) into consecutive
// windows of the given length from start and returns the lowest window
// median. A window with fewer than half the mean window's resolutions is not
// a candidate: the few tasks that resolve just before a stall say nothing
// about the median.
//
// This is the open-loop latency because at a fixed rate well below saturation
// every hiccup of the shared host grows a queue that the following tasks wait
// in, and the host has noisy spells that last minutes: the best-quartile
// one-second window spread 15 % and 26 % between the quartiles of two sets of
// ten identical runs. The quietest quarter second is what the code does when
// the host leaves it alone: over six quiet runs and six beside two processes
// burning a core each in random bursts it read 4.29 and 4.30 ms (quartile
// distance 2.2 % and 3.1 %), the best-quartile second 4.76 and 5.32 ms (5.1 %
// and 21 %). One-second windows are too long to find a quiet one; 100 ms and
// 500 ms windows do as well as 250 ms. A change to the code moves every
// window; a stall that leaves any quarter second alone does not show here,
// which is why the whole-run median and tails are printed beside it.
func quietestMedian(start time.Time, resolved []resolution, length time.Duration) float64 {
	type quarter struct {
		n      int
		median float64
	}
	var quarters []quarter
	for lo := 0; lo < len(resolved); {
		k := resolved[lo].at.Sub(start) / length
		var rtts []float64
		for ; lo < len(resolved) && resolved[lo].at.Sub(start)/length == k; lo++ {
			rtts = append(rtts, resolved[lo].rttMS)
		}
		sort.Float64s(rtts)
		quarters = append(quarters, quarter{len(rtts), percentile(rtts, 0.5)})
	}
	quietest := 0.0
	for _, q := range quarters {
		if 2*q.n*len(quarters) >= len(resolved) && (quietest == 0 || q.median < quietest) {
			quietest = q.median
		}
	}
	return quietest
}

// ackedTask is a task that resolved correctly, with what the service must
// still hold for it after a crash.
type ackedTask struct {
	id protocol.UUID
	t  task
}

// inflight is a submitted task on its way to the reaper.
type inflight struct {
	i   int
	t   task
	due time.Time
	fut *sdk.Future
}

// recentIDs is the ring of the most recent task IDs the status reads ask for.
type recentIDs struct {
	mu   sync.Mutex
	ids  [statusIDs]protocol.UUID
	next int
}

func (r *recentIDs) add(id protocol.UUID) {
	r.mu.Lock()
	r.ids[r.next%statusIDs] = id
	r.next++
	r.mu.Unlock()
}

func (r *recentIDs) snapshot() []protocol.UUID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]protocol.UUID, 0, statusIDs)
	for _, id := range r.ids {
		if id != "" {
			out = append(out, id)
		}
	}
	return out
}

// cpuSample is the three processes' summed CPU time at one instant.
type cpuSample struct {
	at                time.Time
	ws, ep, client, s float64
}

func sampleCPU(st *stack) cpuSample {
	c := cpuSample{at: time.Now()}
	c.ws, _ = procCPU(st.ws.pid())
	c.ep, _ = procCPU(st.ep.pid())
	c.client, _ = procCPU(os.Getpid())
	c.s = c.ws + c.ep + c.client
	return c
}

// resolution is one correct task's place in the measured load.
type resolution struct {
	at    time.Time
	rttMS float64
}

// runLoad drives the measured load: one submitter goroutine (this one) and
// one reaper goroutine taking futures in submit order.
func runLoad(st *stack, o passOptions, p *pass) ([]ackedTask, error) {
	w, n := o.w, p.offered
	gen := newGenerator(w, o.seed)
	tr := p.trace

	// The status ring starts with the last warm-up tasks, so the first reads
	// already ask for 128 ids.
	var recent recentIDs
	for _, id := range st.warmIDs {
		recent.add(id)
	}

	var sampler *metricsSampler
	if tr != nil {
		var err error
		if sampler, err = startSampler(st); err != nil {
			return nil, err
		}
		tr.transport.record(true)
	}
	sent0, recv0 := st.client.BytesSent.Load(), st.client.BytesReceived.Load()

	// The queue holds every submitted future, so the submitter never waits
	// for the reaper; the window semaphore is what closes the loop.
	queue := make(chan inflight, n)
	var slots chan struct{}
	if w.openRate == 0 {
		slots = make(chan struct{}, w.window)
	}
	giveUp := make(chan struct{}) // closed resolveDeadline after the last submit
	resolved := make([]resolution, 0, n)
	var acked []ackedTask
	reaperFailed := 0
	reaped := make(chan struct{})
	go func() {
		defer close(reaped)
		for it := range queue {
			select {
			case <-it.fut.Done():
			case <-giveUp:
			}
			var res protocol.Result
			var err error
			select {
			case <-it.fut.Done():
				res, err = it.fut.Raw(context.Background())
			default:
				err = fmt.Errorf("unresolved %s after the last submit", resolveDeadline)
			}
			now := time.Now()
			if slots != nil {
				<-slots
			}
			if res.TaskID != "" && w.statusEvery > 0 {
				recent.add(res.TaskID)
			}
			if err != nil || res.State != protocol.StateSuccess || !it.t.check(res.Output) {
				reaperFailed++
				continue
			}
			if w.restart {
				acked = append(acked, ackedTask{res.TaskID, it.t})
			}
			resolved = append(resolved, resolution{now, float64(now.Sub(it.due)) / 1e6})
			p.userBytes += int64(it.t.userBytes())
			if tr != nil {
				tr.record(it, res, now)
			}
		}
	}()

	// Status reads share the client's one HTTP connection but run on their
	// own goroutine: an open-loop generator that waited a millisecond for a
	// read would send the following slots late (measured: p99 lag 1.4 ms
	// against 0.8 ms, close to the validity limit).
	readsFailed := 0
	readNow := make(chan struct{}, 1)
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		for range readNow {
			ids := recent.snapshot()
			t0 := time.Now()
			got, err := st.client.TaskStatuses(ids)
			if err != nil || len(got) != len(ids) {
				readsFailed++
				continue
			}
			p.statusMS = append(p.statusMS, float64(time.Since(t0))/1e6)
		}
	}()

	// CPU is sampled at every window boundary; the sample times are the
	// boundaries.
	cpu := []cpuSample{sampleCPU(st)}
	start := cpu[0].at
	sampling := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(windowLength)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				cpu = append(cpu, sampleCPU(st))
			case <-sampling:
				return
			}
		}
	}()

	interval := time.Duration(0)
	if w.openRate > 0 {
		interval = time.Second / time.Duration(w.openRate)
	}
	submitFailed, attempted := 0, 0
	stopTimer := time.NewTimer(time.Duration(o.seconds) * time.Second)
	defer stopTimer.Stop()
submit:
	for i := 0; i < n; i++ {
		var due time.Time
		if w.openRate > 0 {
			due = start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				preciseSleep(d)
			}
			p.genLagMS = append(p.genLagMS, float64(time.Since(due))/1e6)
		} else {
			select {
			case slots <- struct{}{}:
			case <-stopTimer.C:
				break submit
			}
			due = time.Now()
		}
		t := gen.task(i)
		attempted++
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		fut, err := t.submit(st.ex)
		if tr != nil {
			tr.submitCallUS = append(tr.submitCallUS, float64(time.Since(t0))/1e3)
		}
		if err != nil {
			submitFailed++
			if slots != nil {
				<-slots
			}
			continue
		}
		queue <- inflight{i: i, t: t, due: due, fut: fut}
		if w.statusEvery > 0 && i%w.statusEvery == w.statusEvery-1 {
			select {
			case readNow <- struct{}{}:
			default: // the previous read is still in flight; this slot's is skipped
			}
		}
	}
	st.ex.Flush()
	close(queue)
	close(readNow)
	<-readsDone
	timer := time.AfterFunc(resolveDeadline, func() { close(giveUp) })
	<-reaped
	timer.Stop()
	close(sampling)
	<-samplerDone

	end := sampleCPU(st)
	if len(resolved) > 0 {
		end.at = resolved[len(resolved)-1].at
	}
	p.wallS = end.at.Sub(start).Seconds()
	p.cpuWS = end.ws - cpu[0].ws
	p.cpuEP = end.ep - cpu[0].ep
	p.cpuClient = end.client - cpu[0].client
	p.windows = cutWindows(cpu, end, resolved)
	if w.openRate > 0 {
		p.quietRTT = quietestMedian(start, resolved, quietWindowLength)
	}
	if tr != nil {
		tr.httpSent = st.client.BytesSent.Load() - sent0
		tr.httpRecv = st.client.BytesReceived.Load() - recv0
		sampler.stop(tr)
		tr.transport.record(false)
	}

	// A shed fails its batch's futures, so sheds are inside reaperFailed.
	p.attempted = attempted
	p.failed = submitFailed + reaperFailed + readsFailed
	p.correct = len(resolved)
	p.rttMS = make([]float64, len(resolved))
	for i, r := range resolved {
		p.rttMS[i] = r.rttMS
	}
	if st.dataDir != "" {
		p.tasksOnDisk = o.warmup + attempted - submitFailed
	}
	return acked, nil
}

// cutWindows bins the resolutions (in resolve order) between consecutive CPU
// samples, the last boundary being end. A tail shorter than a window is
// dropped, unless the whole load was shorter: then it is the one window.
func cutWindows(cpu []cpuSample, end cpuSample, resolved []resolution) []window {
	var bounds []cpuSample
	for _, c := range cpu {
		if c.at.Before(end.at) {
			bounds = append(bounds, c)
		}
	}
	bounds = append(bounds, end)
	var out []window
	next := 0
	for i := 1; i < len(bounds); i++ {
		from, to := bounds[i-1], bounds[i]
		first := next
		for next < len(resolved) && !resolved[next].at.After(to.at) {
			next++
		}
		length := to.at.Sub(from.at)
		if next == first || (length < windowLength*9/10 && len(bounds) > 2) {
			continue
		}
		rtts := make([]float64, 0, next-first)
		for _, r := range resolved[first:next] {
			rtts = append(rtts, r.rttMS)
		}
		sort.Float64s(rtts)
		out = append(out, window{
			tasks: len(rtts), seconds: length.Seconds(),
			rttP50: percentile(rtts, 0.5), cpuS: to.s - from.s,
		})
	}
	return out
}

// preciseSleep blocks in nanosleep(2). time.Sleep parks on the runtime's
// netpoller, whose epoll timeout is in whole milliseconds, so at a 1 ms
// pacing interval it wakes up to a millisecond late; a high-resolution kernel
// timer keeps the generator on schedule without spinning.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up is caught by the caller's clock read
}

// restartAndVerify SIGKILLs gc-webservice, restarts it on the same data dir,
// times spawn -> first successful Usage, then (untimed) checks that every
// task that resolved correctly is still present, successful and holds the
// right result.
func restartAndVerify(st *stack, o passOptions, p *pass, acked []ackedTask) error {
	st.ep.kill()
	st.ws.kill()
	runDir := filepath.Dir(st.dataDir)
	ws, err := startWebservice(o.binDir, runDir, st.dataDir)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	st.ws = ws
	client := newClient(ws, oneConnTransport())
	defer client.HTTP.CloseIdleConnections()
	if _, err := client.Usage(); err != nil {
		return fmt.Errorf("restart: usage: %w", err)
	}
	p.recoveryS = time.Since(ws.spawned).Seconds()
	if m, err := scrapeMetrics(http.DefaultClient, "http://"+ws.httpAddr+"/metrics?token="+ws.token); err == nil {
		p.replayedRecords = m["gc_durable_wal_replayed_total"]
	}

	const chunk = 1024 // the batch_status cap
	for lo := 0; lo < len(acked); lo += chunk {
		hi := min(lo+chunk, len(acked))
		ids := make([]protocol.UUID, hi-lo)
		want := make(map[protocol.UUID]task, hi-lo)
		for i, a := range acked[lo:hi] {
			ids[i] = a.id
			want[a.id] = a.t
		}
		got, err := client.TaskStatuses(ids)
		if err != nil {
			return fmt.Errorf("restart: batch_status: %w", err)
		}
		ok := 0
		for _, s := range got {
			if t, found := want[s.TaskID]; found && s.State == protocol.StateSuccess && t.check(s.Result) {
				ok++
				delete(want, s.TaskID)
			}
		}
		// A task that resolved correctly before the crash but is missing or
		// wrong after it moves from correct to failed.
		lost := hi - lo - ok
		p.failed += lost
		p.correct -= lost
	}
	if rss, err := procPeakRSS(ws.pid()); err == nil {
		p.rssWS = max(p.rssWS, rss)
	}
	return nil
}
