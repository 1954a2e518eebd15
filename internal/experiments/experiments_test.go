package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestFig2Report(t *testing.T) {
	r := Fig2(1, false)
	if len(r.Rows) < 20 {
		t.Errorf("monthly rows = %d", len(r.Rows))
	}
	full := Fig2(1, true)
	if len(full.Rows) < 600 {
		t.Errorf("daily rows = %d", len(full.Rows))
	}
	if !strings.Contains(r.String(), "fig2") {
		t.Error("report string missing ID")
	}
}

func TestFig1Report(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Errorf("event rows = %d, want 4", len(r.Rows))
	}
	joined := strings.Join(r.Rows, "\n")
	if !strings.Contains(joined, "running as bench") {
		t.Errorf("task did not run under the mapped user:\n%s", joined)
	}
}

func TestUsageReport(t *testing.T) {
	r, err := Usage(1)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Rows, "\n")
	for _, want := range []string{"12418", "spawned user endpoints,1718,1718", "13.8%"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
}

func TestStreamingReport(t *testing.T) {
	r, err := Streaming(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Errorf("rows = %d", len(r.Rows))
	}
	// Streaming uses far fewer REST requests than any polling arm.
	if !strings.HasPrefix(r.Rows[0], "streaming,") {
		t.Errorf("first row = %q", r.Rows[0])
	}
}

// TestBatchingReport asserts T2's shape: a burst of n submissions leaves in
// at most n/4 REST submit calls when batched, and in exactly n when every
// call carries one task.
func TestBatchingReport(t *testing.T) {
	const n = 40
	r, err := Batching(n)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{}
	for _, row := range r.Rows {
		f := strings.Split(row, ",")
		if len(f) != 4 || f[1] != strconv.Itoa(n) {
			t.Fatalf("row %q, want mode,%d,elapsed_ms,rest_submit_requests", row, n)
		}
		if calls[f[0]], err = strconv.Atoi(f[3]); err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
	}
	if got, ok := calls["batched"]; !ok || got > n/4 {
		t.Errorf("batched arm made %d submit calls for %d tasks, want at most %d (rows %q)", got, n, n/4, r.Rows)
	}
	if got := calls["unbatched"]; got != n {
		t.Errorf("unbatched arm made %d submit calls for %d tasks, want exactly %d (rows %q)", got, n, n, r.Rows)
	}
}

func TestWalltimeReport(t *testing.T) {
	r, err := Walltime()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Rows[0], ",124,") {
		t.Errorf("rc 124 missing: %q", r.Rows[0])
	}
	if !strings.Contains(r.Rows[1], ",0,") {
		t.Errorf("control rc 0 missing: %q", r.Rows[1])
	}
}

func TestSandboxReport(t *testing.T) {
	r, err := Sandbox(4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Rows[0], "sandboxed,4,4,4") {
		t.Errorf("sandboxed row = %q", r.Rows[0])
	}
}

func TestMPIHostnameReport(t *testing.T) {
	r, err := MPIHostname()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Rows, "\n")
	// Listing 7 shape: headers plus 2 + 4 host lines.
	if strings.Count(joined, "exp-14-08") != 3 || strings.Count(joined, "exp-14-20") != 3 {
		t.Errorf("host lines wrong:\n%s", joined)
	}
}

func TestMPIPackingReport(t *testing.T) {
	r, err := MPIPacking(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Errorf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(strings.Join(r.Notes, " "), "speeds up") {
		t.Errorf("notes = %v", r.Notes)
	}
}

func TestMEPReuseReport(t *testing.T) {
	r, err := MEPReuse(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Errorf("rows = %d, want 6", len(r.Rows))
	}
}

func TestProxyStoreReport(t *testing.T) {
	r, err := ProxyStore([]int{1 << 10, 11 << 20})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Rows, "\n")
	if !strings.Contains(joined, "rejected") {
		t.Errorf("over-limit payload not rejected:\n%s", joined)
	}
}

func TestBuildPrefixDemo(t *testing.T) {
	r := BuildPrefixDemo()
	if len(r.Rows) != 2 {
		t.Errorf("rows = %d", len(r.Rows))
	}
}
