package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): counters, then gauges, then histograms as summaries, each
// kind sorted by name and named by FamilyName (so e.g. the
// `egress_flush_size` histogram exports as `..._egress_flush_size`, results
// per flush, not a misleading `..._egress_flush_size_seconds`).
func (r *Registry) WriteText(w io.Writer, prefix string) error {
	s := r.TakeSnapshot()
	for _, name := range sortedKeys(s.Counters) {
		if err := WriteFamily(w, FamilyName(prefix, name, "counter"), "counter", Sample{Value: s.Counters[name]}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := WriteFamily(w, FamilyName(prefix, name, "gauge"), "gauge", Sample{Value: s.Gauges[name]}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		if err := WriteFamily(w, FamilyName(prefix, name, "summary"), "summary", Sample{Hist: s.Histograms[name]}); err != nil {
			return err
		}
	}
	return nil
}

// FamilyName is the exposition name of a registry series of the given kind
// ("counter", "gauge" or "summary"). The optional prefix and the name are
// sanitized to [a-zA-Z0-9_:] and joined by "_". Prometheus naming
// conventions are applied: counters gain a `_total` suffix and duration
// summaries a `_seconds` suffix. A histogram whose name already carries a
// non-time unit suffix (see unitHistogram) records counts via the
// 1s==1-unit encoding and keeps its own name.
func FamilyName(prefix, name, kind string) string {
	out := sanitizeMetricName(name)
	if prefix != "" {
		out = sanitizeMetricName(prefix) + "_" + out
	}
	switch {
	case kind == "counter":
		out += "_total"
	case kind == "summary" && !unitHistogram(name):
		out += "_seconds"
	}
	return out
}

// Sample is one sample of an exposition family. Labels holds rendered label
// pairs without braces, empty for none. A counter or gauge sample carries
// Value, or Float when Real is set; a summary sample carries Hist.
type Sample struct {
	Labels string
	Value  int64
	Real   bool
	Float  float64
	Hist   HistogramStats
}

// WriteFamily writes one family: its TYPE line, then each sample. A summary
// sample is written as p50/p95/p99 quantile lines plus _sum and _count, in
// seconds; a unit summary's 1s==1-unit encoding makes that its unit count.
func WriteFamily(w io.Writer, name, kind string, samples ...Sample) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind); err != nil {
		return err
	}
	for _, s := range samples {
		braced, lead := "", ""
		if s.Labels != "" {
			braced, lead = "{"+s.Labels+"}", s.Labels+","
		}
		var err error
		switch {
		case kind == "summary":
			for _, q := range []struct {
				q string
				v time.Duration
			}{{"0.5", s.Hist.P50}, {"0.95", s.Hist.P95}, {"0.99", s.Hist.P99}} {
				if _, err = fmt.Fprintf(w, "%s{%squantile=%q} %g\n", name, lead, q.q, q.v.Seconds()); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", name, braced, s.Hist.Sum.Seconds(), name, braced, s.Hist.Count)
		case s.Real:
			_, err = fmt.Fprintf(w, "%s%s %g\n", name, braced, s.Float)
		default:
			_, err = fmt.Fprintf(w, "%s%s %d\n", name, braced, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// unitHistogram reports whether a histogram's registry name already names a
// non-time unit, meaning its observations use the 1s==1-unit encoding and
// its exposition must not claim seconds.
func unitHistogram(name string) bool {
	for _, suffix := range []string{"_size", "_bytes", "_ratio"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// sanitizeMetricName maps arbitrary registry names onto the Prometheus
// metric-name alphabet; invalid runes become underscores and a leading digit
// gains one.
func sanitizeMetricName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			out = append(out, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				out = append(out, '_')
			}
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
