package metrics

import (
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
)

// runtimeSeries are the Go runtime counters a process exports beside its
// registries: how much it allocates and what collecting it costs. Each is
// named as the Prometheus Go client names the runtime/metrics key.
var runtimeSeries = [...]struct{ name, key string }{
	{"go_gc_cycles_total_gc_cycles_total", "/gc/cycles/total:gc-cycles"},
	{"go_gc_heap_allocs_bytes_total", "/gc/heap/allocs:bytes"},
	{"go_gc_heap_allocs_objects_total", "/gc/heap/allocs:objects"},
	{"go_cpu_classes_gc_total_cpu_seconds_total", "/cpu/classes/gc/total:cpu-seconds"},
}

// WriteRuntime renders the process's runtime/metrics counters (GC cycles,
// heap bytes and objects allocated, GC CPU seconds) as Prometheus counters.
func WriteRuntime(w io.Writer) error {
	var samples [len(runtimeSeries)]rtmetrics.Sample
	for i, s := range runtimeSeries {
		samples[i].Name = s.key
	}
	rtmetrics.Read(samples[:])
	for i, s := range runtimeSeries {
		var v string
		switch val := samples[i].Value; val.Kind() {
		case rtmetrics.KindUint64:
			v = fmt.Sprint(val.Uint64())
		case rtmetrics.KindFloat64:
			v = fmt.Sprint(val.Float64())
		default:
			continue // not supported by this runtime
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", s.name, s.name, v); err != nil {
			return err
		}
	}
	return nil
}
