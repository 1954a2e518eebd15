package metrics

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramStatsConsistent(t *testing.T) {
	h := NewHistogram(64)
	for i := 1; i <= 10; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Stats()
	if s.Count != 10 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Sum != 55*time.Millisecond {
		t.Errorf("sum = %s", s.Sum)
	}
	if s.Mean != 5500*time.Microsecond {
		t.Errorf("mean = %s", s.Mean)
	}
	if s.Min != time.Millisecond || s.Max != 10*time.Millisecond {
		t.Errorf("min/max = %s/%s", s.Min, s.Max)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max || s.P50 < s.Min {
		t.Errorf("quantiles out of order: %+v", s)
	}
}

// TestHistogramStatsUnderContention exercises the single-lock snapshot while
// writers race: every snapshot must be internally consistent (ordered
// quantiles within [Min, Max], Mean == Sum/Count).
func TestHistogramStatsUnderContention(t *testing.T) {
	h := NewHistogram(32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			d := time.Duration(seed+1) * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(d)
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		s := h.Stats()
		if s.Count == 0 {
			continue
		}
		if s.P50 < s.Min || s.P99 > s.Max || s.P50 > s.P95 || s.P95 > s.P99 {
			t.Fatalf("inconsistent snapshot: %+v", s)
		}
		if got := s.Sum / time.Duration(s.Count); got != s.Mean {
			t.Fatalf("mean %s != sum/count %s (snapshot not atomic)", s.Mean, got)
		}
	}
	close(stop)
	wg.Wait()
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("published.tasks.ep-1").Add(3)
	r.Gauge("queue depth").Set(-2)
	h := r.Histogram("submit")
	h.Observe(250 * time.Millisecond)
	h.Observe(750 * time.Millisecond)

	var b strings.Builder
	if err := r.WriteText(&b, "gc_test"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE gc_test_published_tasks_ep_1_total counter",
		"gc_test_published_tasks_ep_1_total 3",
		"# TYPE gc_test_queue_depth gauge",
		"gc_test_queue_depth -2",
		"# TYPE gc_test_submit_seconds summary",
		`gc_test_submit_seconds{quantile="0.5"}`,
		`gc_test_submit_seconds{quantile="0.99"}`,
		"gc_test_submit_seconds_sum 1\n",
		"gc_test_submit_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		"a.b-c d":      "a_b_c_d",
		"9lives":       "_9lives",
		"":             "_",
		"colons:ok":    "colons:ok",
		"UPPER_lower1": "UPPER_lower1",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWriteRuntime: the runtime counters export as Prometheus counters, and
// allocating moves the heap-allocation ones.
func TestWriteRuntime(t *testing.T) {
	read := func() map[string]float64 {
		var b strings.Builder
		if err := WriteRuntime(&b); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				if !strings.HasSuffix(line, " counter") {
					t.Errorf("%q: want a counter", line)
				}
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed sample %q", line)
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			out[name] = f
		}
		return out
	}
	before := read()
	for _, s := range runtimeSeries {
		if _, ok := before[s.name]; !ok {
			t.Errorf("%s (%s) not exported", s.name, s.key)
		}
	}
	sink = make([]byte, 1<<20)
	after := read()
	if d := after["go_gc_heap_allocs_bytes_total"] - before["go_gc_heap_allocs_bytes_total"]; d < 1<<20 {
		t.Errorf("a 1 MiB allocation moved go_gc_heap_allocs_bytes_total by %.0f", d)
	}
	if after["go_gc_heap_allocs_objects_total"] <= before["go_gc_heap_allocs_objects_total"] {
		t.Error("go_gc_heap_allocs_objects_total did not move")
	}
}

var sink []byte
