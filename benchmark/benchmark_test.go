package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, // not even the median has ten samples beyond it
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10_000, 0.999, true},
		{100_000, 0.9999, true},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 0.5); got != 500 {
		t.Errorf("p50 = %g, want 500", got)
	}
	if got := supportedPercentile(sorted, 0.99); got != 990 {
		t.Errorf("supported p99 of 1000 = %g, want 990", got)
	}
	if got := supportedPercentile(sorted, 0.999); got != 0 {
		t.Errorf("p99.9 of 1000 samples reported as %g, want 0 (one sample beyond it)", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := newGenerator(w, 7).digest(300), newGenerator(w, 7).digest(300)
		if a != b {
			t.Errorf("%s: same seed gave different task lists", w.name)
		}
		if c := newGenerator(w, 8).digest(300); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same task list", w.name)
		}
	}
	w, _ := findWorkload("payload-mix")
	g := newGenerator(w, 1)
	var classes [4]int
	const n = 4000
	for i := 0; i < n; i++ {
		tk := g.task(i)
		classes[tk.class]++
		want := map[uint8]int{classInline: inlineBytes, classUnique: blobBytes, classHot: blobBytes}[tk.class]
		if tk.kind != kindIdentity || len(tk.s) != want {
			t.Fatalf("task %d: kind %d class %d with %d bytes", i, tk.kind, tk.class, len(tk.s))
		}
	}
	for class, share := range map[uint8]float64{classInline: 0.75, classUnique: 0.125, classHot: 0.125} {
		if got := float64(classes[class]) / n; math.Abs(got-share) > 0.03 {
			t.Errorf("class %d: share %.3f, want about %.3f", class, got, share)
		}
	}
}

func TestTypicalLagP99(t *testing.T) {
	// Three seconds of 100 slots, 0.1 ms late each; the second one holds a
	// 50 ms host stall that a whole-run p99 would report.
	lags := make([]float64, 300)
	for i := range lags {
		lags[i] = 0.1
	}
	for i := 100; i < 150; i++ {
		lags[i] = float64(150 - i)
	}
	if got := typicalLagP99(lags, 100); got != 0.1 {
		t.Errorf("typical p99 lag = %g ms, want 0.1 (one stalled second of three)", got)
	}
	if got := percentile(sortedCopy(lags), 0.99); got < 40 {
		t.Errorf("whole-run p99 = %g, the test's stall is too small to matter", got)
	}
	// A generator late in every second is caught.
	for i := range lags {
		if i%100 >= 95 {
			lags[i] = 3
		}
	}
	if got := typicalLagP99(lags, 100); got < 3 {
		t.Errorf("typical p99 lag = %g ms, want 3", got)
	}
	if got := typicalLagP99([]float64{1, 2, 3}, 100); got != 3 {
		t.Errorf("short run p99 = %g, want 3", got)
	}
}

func TestOutputCheck(t *testing.T) {
	add := task{kind: kindAdd, a: 40, b: 2}
	for out, want := range map[string]bool{"42": true, "42.0": true, " 42\n": true, "43": false, "": false, `"42"`: false} {
		if got := add.check([]byte(out)); got != want {
			t.Errorf("add.check(%q) = %v, want %v", out, got, want)
		}
	}
	id := task{kind: kindIdentity, s: "abc-_9"}
	for out, want := range map[string]bool{`"abc-_9"`: true, `"abc-_8"`: false, `abc-_9`: false, `"abc-_9" `: false, ``: false} {
		if got := id.check([]byte(out)); got != want {
			t.Errorf("identity.check(%q) = %v, want %v", out, got, want)
		}
	}
}

func TestProcParsing(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime=250 stime=150 ticks.
	stat := "4242 (gc web) (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 150 0 0 20 0 9 0 12345 1000000 500 18446744073709551615"
	cpu, err := parseProcStatCPU(stat)
	if err != nil || cpu != 4.0 {
		t.Errorf("parseProcStatCPU = %g, %v; want 4", cpu, err)
	}
	if _, err := parseProcStatCPU("4242 (short) S 1 2"); err == nil {
		t.Error("truncated stat line accepted")
	}
	status := "Name:\tgc-webservice\nVmPeak:\t 2000 kB\nVmHWM:\t  153600 kB\nVmRSS:\t 1024 kB\n"
	mb, err := parseProcStatusKB(status, "VmHWM")
	if err != nil || mb != 150 {
		t.Errorf("VmHWM = %g MB, %v; want 150", mb, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %g, %v", cpu, err)
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("procPeakRSS(self) = %g, %v", rss, err)
	}

	m := parseMetrics("# HELP x\ngc_a_total 12\ngc_h_seconds{quantile=\"0.5\"} 0.25\ngc_q_tasks_ab_cd 3\n\nbroken\n")
	want := map[string]float64{"gc_a_total": 12, `gc_h_seconds{quantile="0.5"}`: 0.25, "gc_q_tasks_ab_cd": 3}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("parseMetrics = %v, want %v", m, want)
	}
	if got := delta(map[string]float64{"a": 1}, map[string]float64{"a": 4, "new": 2}); got["a"] != 3 || got["new"] != 2 {
		t.Errorf("delta = %v", got)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	p := &pass{
		w: workloads[1], attempted: 1000, correct: 1000, wallS: 2,
		// Five windows: the best-quartile boundary is the 4th best of five
		// for throughput and the 2nd lowest for latency and CPU cost.
		windows: []window{
			{tasks: 400, seconds: 1, rttP50: 5, cpuS: 1}, {tasks: 500, seconds: 1, rttP50: 4, cpuS: 1},
			{tasks: 600, seconds: 1, rttP50: 3, cpuS: 1}, {tasks: 700, seconds: 1, rttP50: 2, cpuS: 1.4},
			{tasks: 800, seconds: 1, rttP50: 1, cpuS: 1},
		},
		setupS: []float64{0.5, 0.7, 0.6}, rssWS: 20, rssEP: 2,
	}
	res := makeResult(p, endToEnd, endToEndValues(p))
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", back, res)
	}
	if len(back.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want every end-to-end metric (%d)", len(back.Metrics), len(endToEnd))
	}
	if got := back.Metrics["tasks_per_s"]; got.Value != 700 || got.Unit != "1/s" {
		t.Errorf("tasks_per_s = %+v, want the 75th-percentile window's 700", got)
	}
	if got := back.Metrics["rtt_p50_ms"].Value; got != 2 {
		t.Errorf("rtt_p50_ms = %g, want the 25th-percentile window's 2", got)
	}
	if got := p.bestQuartile(false, windowStats["cpu_s_per_ktask"]); got != 1.0/0.6 {
		t.Errorf("cpu_s_per_ktask = %g, want the 25th-percentile window's %g", got, 1.0/0.6)
	}
	if got := back.Metrics["peak_rss_mb"].Value; got != 22 {
		t.Errorf("peak_rss_mb = %g, want 22", got)
	}
	if got := back.Metrics["setup_s"].Value; got != 0.6 {
		t.Errorf("setup_s = %g, want the median 0.6", got)
	}
	if !back.Correct || back.Failed != 0 {
		t.Errorf("clean pass reported as %+v", back)
	}
	p.failed = 1
	if makeResult(p, endToEnd, endToEndValues(p)).Correct {
		t.Error("a failed task left correct true")
	}
	// An open loop reports its quietest quarter second, not a window quartile.
	p.w, p.quietRTT = workloads[0], 1.5
	if got := endToEndValues(p)["rtt_p50_ms"]; got != 1.5 {
		t.Errorf("open-loop rtt_p50_ms = %g, want the quietest window's 1.5", got)
	}
}

func TestQuietestMedian(t *testing.T) {
	start := time.Unix(1000, 0)
	var resolved []resolution
	add := func(window, n int, rtt float64) {
		for i := 0; i < n; i++ {
			at := start.Add(time.Duration(window)*quietWindowLength + time.Duration(i)*time.Millisecond)
			resolved = append(resolved, resolution{at, rtt})
		}
	}
	add(0, 100, 9) // a noisy window
	add(1, 100, 5) // the quiet one
	add(2, 10, 1)  // ten tasks before a stall: too few to be a candidate
	add(4, 100, 7) // window 3 is empty
	if got := quietestMedian(start, resolved, quietWindowLength); got != 5 {
		t.Errorf("quietestMedian = %g, want 5", got)
	}
	if got := quietestMedian(start, nil, quietWindowLength); got != 0 {
		t.Errorf("quietestMedian of nothing = %g, want 0", got)
	}
}

func TestBoundComparison(t *testing.T) {
	cases := []struct {
		higher      bool
		a, b, bound float64
		want        bool
	}{
		{true, 1000, 950, 0.10, true},  // throughput down 5 %
		{true, 1000, 890, 0.10, false}, // down 11 %
		{true, 1000, 2000, 0.10, true}, // better is never a regression
		{false, 10, 10.9, 0.10, true},  // latency up 9 %
		{false, 10, 11.1, 0.10, false}, // up 11 %
		{false, 10, 1, 0.10, true},     // better
		{false, 0, 0, 0.10, true},      // nothing to compare
		{false, 0, 1, 0.10, false},     // appeared from zero
	}
	for _, c := range cases {
		if got := withinBound(c.higher, c.a, c.b, c.bound); got != c.want {
			t.Errorf("withinBound(higher=%v, %g -> %g, %g) = %v, want %v", c.higher, c.a, c.b, c.bound, got, c.want)
		}
	}
	if w := worsening(true, 100, 90); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("worsening = %g, want 0.1", w)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package in
// step: workloads, metric names, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, package has %q / %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the package", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better() {
				t.Errorf("%s %d: BENCHMARK.json has %+v, package has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound %v against %g", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

func TestParseFlags(t *testing.T) {
	// The driver's spelling: double dashes, -trace with a value.
	o, err := parseFlags([]string{"--workload", "sat-mem", "--seed", "9", "--seconds", "5", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.workloads) != 1 || o.workloads[0].name != "sat-mem" || o.seed != 9 || o.seconds != 5 || !o.trace {
		t.Errorf("parsed %+v", o)
	}
	if o, err = parseFlags([]string{"-workloads", "steady-small,payload-mix"}); err != nil || len(o.workloads) != 2 {
		t.Errorf("-workloads filter: %+v, %v", o.workloads, err)
	}
	if o, err = parseFlags(nil); err != nil || len(o.workloads) != len(workloads) || o.trace {
		t.Errorf("defaults: %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"-workload", "nope"}, {"-seconds", "0"}, {"-trace", "2"}, {"stray"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// TestSmoke runs a two-second miniature of every workload against freshly
// built binaries, and one traced miniature with the layer probes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	dir := t.TempDir()
	o := options{seed: 3, seconds: 2, workDir: dir, binDir: dir + "/bin"}
	if _, err := buildBinaries(o.binDir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAllChildren)
	start := time.Now()
	for _, w := range workloads {
		po := untracedOptions(o, w)
		po.setups, po.warmup = 1, 50
		p, err := runPassTimed(po)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		// Pacing validity is not asserted: other packages' tests share the CPUs.
		if p.failed != 0 || p.correct == 0 || p.correct != p.attempted {
			t.Errorf("%s: attempted %d, correct %d, failed %d", w.name, p.attempted, p.correct, p.failed)
		}
		for name, v := range endToEndValues(p) {
			if v <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.name, name, v)
			}
		}
		if w.restart && p.recoveryS <= 0 {
			t.Errorf("%s: no recovery time", w.name)
		}
		if w.durable && p.diskBytes == 0 {
			t.Errorf("%s: empty data dir", w.name)
		}
	}

	w, _ := findWorkload("payload-mix")
	po := untracedOptions(o, w)
	po.setups, po.warmup, po.traced = 1, 50, true
	p, err := runPassTimed(po)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := runProbes(w, o.seed, 2*probeBatch, dir)
	if err != nil {
		t.Fatal(err)
	}
	values := perLayerValues(p, p, probes, 0)
	for _, d := range perLayer {
		if _, ok := values[d.name]; !ok {
			t.Errorf("per-layer metric %s not produced", d.name)
		}
	}
	for _, name := range []string{"path.ingress_p50_ms", "sdk.http_submit_p50_ms", "durable.wal_fsyncs_per_task",
		"webservice.spill_bytes_per_task", "endpoint.dedup_hit_ratio", "objectstore.put_mb_per_s", "protocol.wire_bytes_per_task"} {
		if values[name] <= 0 {
			t.Errorf("%s = %g on payload-mix, want > 0", name, values[name])
		}
	}
	if err := p.trace.writeSpans(dir + "/spans.jsonl"); err != nil {
		t.Error(err)
	}
	t.Logf("smoke took %s", time.Since(start).Round(time.Millisecond))
}
