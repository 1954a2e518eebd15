package main

import "fmt"

// metricDef names one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may get worse before it counts as a
// regression; per-layer metrics have none. BENCHMARK.json repeats these
// tables and a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// endToEnd is what a user of the service sees; an untraced run reports all
// of them on every workload. CPU cost is not among them (it is
// path.cpu_s_per_ktask): at steady-small's fixed rate identical runs read
// 0.76 to 1.10 s per 1000 tasks as the host's speed drifted, 23 % between the
// quartiles of ten, and at saturation it is the busy cores / tasks_per_s.
var endToEnd = []metricDef{
	{"tasks_per_s", "1/s", true, 0.25},
	{"rtt_p50_ms", "ms", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.20},
	{"setup_s", "s", false, 0.25},
}

// windowStats are the figures computed per one-second window; every run
// prints each as a series.
var windowStats = map[string]func(window) float64{
	"tasks_per_s":     func(w window) float64 { return float64(w.tasks) / w.seconds },
	"rtt_p50_ms":      func(w window) float64 { return w.rttP50 },
	"cpu_s_per_ktask": func(w window) float64 { return w.cpuS / float64(w.tasks) * 1000 },
}

// endToEndValues reduces a pass to the gated figures: rate, latency and CPU
// cost are the best-quartile window, set-up the median of the set-ups. An
// open loop's latency is its quietest quarter second instead (see
// quietestMedian); a closed loop's is window / throughput and stays on the
// windows the throughput is taken over.
func endToEndValues(p *pass) map[string]float64 {
	v := map[string]float64{
		"peak_rss_mb": p.rssWS + p.rssEP,
		"setup_s":     median(p.setupS),
	}
	for _, d := range endToEnd {
		if f, ok := windowStats[d.name]; ok {
			v[d.name] = p.bestQuartile(d.higher, f)
		}
	}
	if p.w.openRate > 0 {
		v["rtt_p50_ms"] = p.quietRTT
	}
	return v
}

func (p *pass) failRatio() float64 {
	if p.attempted == 0 {
		return 1
	}
	return float64(p.failed) / float64(p.attempted)
}

// printPass prints the pass's human-readable extras: the figures that are
// reported but not gated, each with the sample count behind it.
func printPass(p *pass) {
	n := p.w.name
	fmt.Printf("%s attempted %d correct %d failed %d fail_ratio %.6f; %.3f s under load, %d windows of %s\n",
		n, p.attempted, p.correct, p.failed, p.failRatio(), p.wallS, len(p.windows), windowLength)
	fmt.Printf("%s whole run: %.1f tasks/s, rtt p50 %.3f ms p90 %.3f ms, %.4f cpu_s_per_ktask\n", n,
		ratio(float64(p.correct), p.wallS), percentile(p.rttMS, 0.5), percentile(p.rttMS, 0.9), p.perKTask(p.cpuWS+p.cpuEP+p.cpuClient))
	for _, name := range []string{"tasks_per_s", "rtt_p50_ms", "cpu_s_per_ktask"} {
		fmt.Printf("%s %s of each %s:", n, name, windowLength)
		for _, w := range p.windows {
			fmt.Printf(" %.4g", windowStats[name](w))
		}
		fmt.Println()
	}
	fmt.Printf("%s cpu_s_per_ktask %.4f s (best-quartile window)\n", n, p.bestQuartile(false, windowStats["cpu_s_per_ktask"]))
	if hp, ok := highestPercentile(len(p.rttMS)); ok {
		fmt.Printf("%s rtt highest supported percentile p%g = %.3f ms (n=%d)\n",
			n, hp*100, percentile(p.rttMS, hp), len(p.rttMS))
	}
	if len(p.statusMS) > 0 {
		fmt.Printf("%s status_p50_ms %.3f ms (n=%d reads of %d ids)\n", n, percentile(p.statusMS, 0.5), len(p.statusMS), statusIDs)
	}
	if len(p.genLagMS) > 0 {
		fmt.Printf("%s gen_lag_p99_ms %.3f ms over the run (n=%d), %.3f ms in the best quarter of the seconds (limit %s)\n",
			n, percentile(p.genLagMS, 0.99), len(p.genLagMS), p.typicalLagMS, maxGenLagP99)
	}
	if p.tasksOnDisk > 0 {
		fmt.Printf("%s disk_bytes_per_task %.1f B (state %d, broker %d, objects %d bytes over %d tasks)\n",
			n, float64(p.diskBytes)/float64(p.tasksOnDisk), p.diskState, p.diskBroker, p.diskObjects, p.tasksOnDisk)
	}
	if p.w.restart {
		fmt.Printf("%s recovery_s %.3f s (%.0f WAL records replayed)\n", n, p.recoveryS, p.replayedRecords)
	}
	fmt.Printf("%s cpu_s webservice %.2f endpoint %.2f client %.2f; rss_mb webservice %.1f endpoint %.1f; setups %.3f s\n",
		n, p.cpuWS, p.cpuEP, p.cpuClient, p.rssWS, p.rssEP, p.setupS)
}
