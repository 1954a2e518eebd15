package main

import (
	"fmt"
	"path/filepath"
	"strings"
)

// perLayer is what a traced run reports: names are <module>.<metric>, after
// the repository's internal packages, plus "path" for the spans the benchmark
// records around its own calls. A metric that a workload does not exercise
// reads 0 there (rtt_spill on small tasks, recovery without a restart).
// Sources: (S) boundary spans and protocol.Result fields, (C) before/after
// scrapes of the two /metrics endpoints, /proc and the data dir, (P) layer
// probes. README.md says which end-to-end metric each one should move.
var perLayer = []metricDef{
	// path (S)
	{name: "path.ingress_p50_ms", unit: "ms"},
	{name: "path.exec_p50_ms", unit: "ms"},
	{name: "path.egress_p50_ms", unit: "ms"},
	{name: "path.rtt_p90_ms", unit: "ms"},
	{name: "path.rtt_p99_ms", unit: "ms"},
	{name: "path.rtt_p999_ms", unit: "ms"},
	{name: "path.rtt_inline_p50_ms", unit: "ms"},
	{name: "path.rtt_spill_p50_ms", unit: "ms"},
	{name: "path.payload_mb_per_s", unit: "MB/s", higher: true},
	{name: "path.cpu_s_per_ktask", unit: "s"},
	{name: "path.gen_lag_p99_ms", unit: "ms"},
	{name: "path.trace_overhead_ratio", unit: "ratio"},
	{name: "path.unattributed_ratio", unit: "ratio"},
	{name: "path.fail_ratio", unit: "ratio"},
	{name: "path.build_s", unit: "s"},
	// sdk (S)
	{name: "sdk.submit_call_p50_us", unit: "us"},
	{name: "sdk.http_submit_p50_ms", unit: "ms"},
	{name: "sdk.tasks_per_post", unit: "count", higher: true},
	{name: "sdk.http_bytes_per_task", unit: "B"},
	{name: "sdk.client_cpu_s_per_ktask", unit: "s"},
	// webservice (P, C)
	{name: "webservice.submit_us_per_task", unit: "us"},
	{name: "webservice.status_read_us_per_task", unit: "us"},
	{name: "webservice.status_p50_ms", unit: "ms"},
	{name: "webservice.cpu_s_per_ktask", unit: "s"},
	{name: "webservice.rss_mb", unit: "MB"},
	{name: "webservice.spill_bytes_per_task", unit: "B"},
	// auth, scheduler (P)
	{name: "auth.introspect_ns", unit: "ns"},
	{name: "scheduler.admit_ns_per_task", unit: "ns"},
	// statestore (P)
	{name: "statestore.create_ns_per_task", unit: "ns"},
	{name: "statestore.transition_ns_per_task", unit: "ns"},
	{name: "statestore.complete_ns_per_task", unit: "ns"},
	{name: "statestore.read_ns_per_task", unit: "ns"},
	// durable (C, P)
	{name: "durable.wal_appends_per_task", unit: "count"},
	{name: "durable.wal_fsyncs_per_task", unit: "count"},
	{name: "durable.wal_fsync_p50_ms", unit: "ms"},
	{name: "durable.disk_bytes_per_task", unit: "B"},
	{name: "durable.state_wal_bytes_per_task", unit: "B"},
	{name: "durable.broker_wal_bytes_per_task", unit: "B"},
	{name: "durable.recovery_s", unit: "s"},
	{name: "durable.replayed_records_per_task", unit: "count"},
	{name: "durable.store_commit_us_per_task", unit: "us"},
	{name: "durable.broker_commit_us_per_msg", unit: "us"},
	{name: "durable.replay_us_per_task", unit: "us"},
	{name: "durable.snapshot_ms", unit: "ms"},
	{name: "durable.snapshot_bytes_per_task", unit: "B"},
	// broker (P, C)
	{name: "broker.inproc_us_per_msg", unit: "us"},
	{name: "broker.tcp_us_per_msg", unit: "us"},
	{name: "broker.depth_tasks_max", unit: "count"},
	{name: "broker.requeued_per_ktask", unit: "count"},
	// protocol (P)
	{name: "protocol.encode_ns_per_msg", unit: "ns"},
	{name: "protocol.decode_ns_per_msg", unit: "ns"},
	{name: "protocol.wire_bytes_per_task", unit: "B"},
	{name: "protocol.wire_amplification", unit: "ratio"},
	// endpoint (C, P)
	{name: "endpoint.intake_batch_mean", unit: "count", higher: true},
	{name: "endpoint.egress_flush_mean", unit: "count", higher: true},
	{name: "endpoint.dedup_hit_ratio", unit: "ratio", higher: true},
	{name: "endpoint.spill_result_bytes_per_task", unit: "B"},
	{name: "endpoint.cpu_s_per_ktask", unit: "s"},
	{name: "endpoint.rss_mb", unit: "MB"},
	{name: "endpoint.agent_us_per_task", unit: "us"},
	// engine (S, P)
	{name: "engine.queue_delay_p50_ms", unit: "ms"},
	{name: "engine.exec_p50_ms", unit: "ms"},
	{name: "engine.dispatch_us_per_task", unit: "us"},
	// objectstore (P, C)
	{name: "objectstore.put_mb_per_s", unit: "MB/s", higher: true},
	{name: "objectstore.get_mb_per_s", unit: "MB/s", higher: true},
	{name: "objectstore.dedup_probe_hit_ratio", unit: "ratio", higher: true},
	{name: "objectstore.ingress_bytes_per_task", unit: "B"},
	{name: "objectstore.egress_bytes_per_task", unit: "B"},
	{name: "objectstore.disk_bytes_per_task", unit: "B"},
}

// blockingPathUS sums the probe costs a single task's result waits for, in
// microseconds: the front door (which on a durable workload also pays the
// two WALs), the task and the result each crossing the TCP broker, and the
// agent (which includes the engine). Everything else in rtt_p50 is waiting:
// batch windows, group commits in flight, queues.
func blockingPathUS(w workload, probes map[string]float64) float64 {
	us := probes["webservice.submit_us_per_task"] + 2*probes["broker.tcp_us_per_msg"] + probes["endpoint.agent_us_per_task"]
	if w.durable {
		us += probes["durable.store_commit_us_per_task"] + probes["durable.broker_commit_us_per_msg"]
	}
	return us
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerValues combines the traced pass, the untraced reference pass of
// the same length and the probes into the per-layer metrics.
func perLayerValues(ref, p *pass, probes map[string]float64, buildS float64) map[string]float64 {
	tr := p.trace
	v := make(map[string]float64, len(perLayer))
	for name, x := range probes {
		v[name] = x
	}
	all := -1
	ingress := tr.stage(all, func(s taskSpan) int64 { return s.started - s.due })
	exec := tr.stage(all, func(s taskSpan) int64 { return s.completed - s.started })
	egress := tr.stage(all, func(s taskSpan) int64 { return s.resolved - s.completed })
	rtt := func(s taskSpan) int64 { return s.resolved - s.due }
	spill := append(tr.stage(int(classUnique), rtt), tr.stage(int(classHot), rtt)...)
	e2e, refE2E := endToEndValues(p), endToEndValues(ref)
	rttP50 := e2e["rtt_p50_ms"]

	v["path.ingress_p50_ms"] = percentile(ingress, 0.5)
	v["path.exec_p50_ms"] = percentile(exec, 0.5)
	v["path.egress_p50_ms"] = percentile(egress, 0.5)
	v["path.rtt_p90_ms"] = supportedPercentile(p.rttMS, 0.9)
	v["path.rtt_p99_ms"] = supportedPercentile(p.rttMS, 0.99)
	v["path.rtt_p999_ms"] = supportedPercentile(p.rttMS, 0.999)
	v["path.rtt_inline_p50_ms"] = percentile(tr.stage(int(classInline), rtt), 0.5)
	v["path.rtt_spill_p50_ms"] = median(spill)
	v["path.payload_mb_per_s"] = ratio(float64(p.userBytes)/1e6, p.wallS)
	v["path.cpu_s_per_ktask"] = p.bestQuartile(false, windowStats["cpu_s_per_ktask"])
	v["path.gen_lag_p99_ms"] = percentile(p.genLagMS, 0.99)
	// Above 1 means tracing costs: latency where the rate is fixed,
	// throughput where it is not.
	if p.w.openRate > 0 {
		v["path.trace_overhead_ratio"] = ratio(rttP50, refE2E["rtt_p50_ms"])
	} else {
		v["path.trace_overhead_ratio"] = ratio(refE2E["tasks_per_s"], e2e["tasks_per_s"])
	}
	v["path.unattributed_ratio"] = 1 - ratio(blockingPathUS(p.w, probes)/1e3, rttP50)
	v["path.fail_ratio"] = p.failRatio()
	v["path.build_s"] = buildS

	posts := tr.transport.snapshot()
	v["sdk.submit_call_p50_us"] = median(tr.submitCallUS)
	v["sdk.http_submit_p50_ms"] = median(posts)
	v["sdk.tasks_per_post"] = ratio(float64(p.attempted), float64(len(posts)))
	v["sdk.http_bytes_per_task"] = ratio(float64(tr.httpSent+tr.httpRecv), float64(p.attempted))
	v["sdk.client_cpu_s_per_ktask"] = p.perKTask(p.cpuClient)

	v["webservice.status_p50_ms"] = percentile(p.statusMS, 0.5)
	v["webservice.cpu_s_per_ktask"] = p.perKTask(p.cpuWS)
	v["webservice.rss_mb"] = p.rssWS
	v["webservice.spill_bytes_per_task"] = p.perTask(
		tr.wsDelta["gc_webservice_spill_payload_bytes_total"] + tr.wsDelta["gc_webservice_spill_result_bytes_total"])

	v["durable.wal_appends_per_task"] = p.perTask(tr.wsDelta["gc_durable_wal_appends_total"])
	v["durable.wal_fsyncs_per_task"] = p.perTask(tr.wsDelta["gc_durable_wal_fsync_seconds_count"])
	v["durable.wal_fsync_p50_ms"] = tr.wsEnd[`gc_durable_wal_fsync_seconds{quantile="0.5"}`] * 1e3
	onDisk := float64(p.tasksOnDisk)
	v["durable.disk_bytes_per_task"] = ratio(float64(p.diskBytes), onDisk)
	v["durable.state_wal_bytes_per_task"] = ratio(float64(p.diskState), onDisk)
	v["durable.broker_wal_bytes_per_task"] = ratio(float64(p.diskBroker), onDisk)
	v["durable.recovery_s"] = p.recoveryS
	v["durable.replayed_records_per_task"] = ratio(p.replayedRecords, onDisk)

	v["broker.depth_tasks_max"] = tr.depthTasksMax
	v["broker.requeued_per_ktask"] = p.perKTask(sumSuffix(tr.wsDelta, "gc_broker_requeued_", "_total"))

	v["endpoint.intake_batch_mean"] = ratio(tr.epDelta["gc_endpoint_tasks_received_total"], tr.epDelta["gc_endpoint_intake_batches_total"])
	v["endpoint.egress_flush_mean"] = ratio(tr.epDelta["gc_endpoint_results_published_total"], tr.epDelta["gc_endpoint_egress_flushes_total"])
	hits, misses := tr.epDelta["gc_endpoint_dedup_cache_hits_total"], tr.epDelta["gc_endpoint_dedup_cache_misses_total"]
	v["endpoint.dedup_hit_ratio"] = ratio(hits, hits+misses)
	v["endpoint.spill_result_bytes_per_task"] = p.perTask(tr.epDelta["gc_endpoint_spill_result_bytes_total"])
	v["endpoint.cpu_s_per_ktask"] = p.perKTask(p.cpuEP)
	v["endpoint.rss_mb"] = p.rssEP

	v["engine.queue_delay_p50_ms"] = percentile(tr.stage(all, func(s taskSpan) int64 { return s.queueDelay }), 0.5)
	v["engine.exec_p50_ms"] = v["path.exec_p50_ms"]

	v["objectstore.ingress_bytes_per_task"] = p.perTask(tr.wsDelta["gc_objectstore_ingress_bytes_total"])
	v["objectstore.egress_bytes_per_task"] = p.perTask(tr.wsDelta["gc_objectstore_egress_bytes_total"])
	v["objectstore.disk_bytes_per_task"] = ratio(float64(p.diskObjects), onDisk)
	return v
}

// runTraced is the -trace 1 run of one workload: an untraced reference pass
// and a traced pass, each half of -seconds so that the pair costs what one
// untraced run does, then the layer probes.
func runTraced(o options, w workload, buildS float64) (result, string, error) {
	po := untracedOptions(o, w)
	po.setups = 1
	po.seconds = max(o.seconds/2, 1)
	ref, err := runPassTimed(po)
	if err != nil {
		return result{}, "", err
	}
	po.traced = true
	p, err := runPassTimed(po)
	if err != nil {
		return result{}, "", err
	}
	printPass(p)
	spans := filepath.Join(o.workDir, "spans-"+w.name+".jsonl")
	if err := p.trace.writeSpans(spans); err != nil {
		return result{}, "", err
	}
	fmt.Printf("%s spans of %d tasks written to %s\n", w.name, len(p.trace.spans), spans)
	probes, err := runProbes(w, o.seed, probeTasks, o.workDir)
	if err != nil {
		return result{}, "", fmt.Errorf("%s probes: %w", w.name, err)
	}
	values := perLayerValues(ref, p, probes, buildS)
	printBudget(p, values)
	return makeResult(p, perLayer, values), p.invalid, nil
}

// printBudget prints the traced run as a budget: where the median round
// trip goes along the path, and each layer's own cost beside it.
func printBudget(p *pass, v map[string]float64) {
	n := p.w.name
	rtt := endToEndValues(p)["rtt_p50_ms"]
	fmt.Printf("%s budget of rtt_p50 %.3f ms: ingress %.3f + exec %.3f + egress %.3f ms (stage medians); blocking-path probe cost %.3f ms, unattributed %.0f%%\n",
		n, rtt, v["path.ingress_p50_ms"], v["path.exec_p50_ms"], v["path.egress_p50_ms"],
		blockingPathUS(p.w, v)/1e3, 100*v["path.unattributed_ratio"])
	var cpu []string
	for _, m := range []string{"webservice", "endpoint"} {
		cpu = append(cpu, fmt.Sprintf("%s %.3f", m, v[m+".cpu_s_per_ktask"]))
	}
	fmt.Printf("%s cpu_s_per_ktask by process: %s, client %.3f\n", n, strings.Join(cpu, ", "), v["sdk.client_cpu_s_per_ktask"])
}
