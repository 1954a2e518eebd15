package workload

import (
	"testing"
	"time"
)

func TestFig2TraceCoversWindow(t *testing.T) {
	trace := Fig2Trace(1)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	if !trace[0].Date.Equal(Fig2Start) {
		t.Errorf("start = %v", trace[0].Date)
	}
	if !trace[len(trace)-1].Date.Equal(Fig2End) {
		t.Errorf("end = %v", trace[len(trace)-1].Date)
	}
	wantDays := int(Fig2End.Sub(Fig2Start).Hours()/24) + 1
	if len(trace) != wantDays {
		t.Errorf("days = %d, want %d", len(trace), wantDays)
	}
	// Consecutive dates.
	for i := 1; i < len(trace); i++ {
		if trace[i].Date.Sub(trace[i-1].Date) != 24*time.Hour {
			t.Fatalf("gap at %d", i)
		}
	}
}

func TestFig2TraceShape(t *testing.T) {
	trace := Fig2Trace(42)
	s := Summarize(trace)
	// The executed total is calibrated to ~17M; the displayed total is
	// lower because bursts are clipped.
	if s.RawTotal < 16_500_000 || s.RawTotal > 17_500_000 {
		t.Errorf("raw total = %d, want ~17M", s.RawTotal)
	}
	if s.Total >= s.RawTotal {
		t.Errorf("displayed total %d not reduced by truncation (raw %d)", s.Total, s.RawTotal)
	}
	if s.Total < s.RawTotal/4 {
		t.Errorf("truncation removed too much: displayed %d of raw %d", s.Total, s.RawTotal)
	}
	// No day exceeds the truncation cap.
	if s.Peak > Fig2Truncation {
		t.Errorf("peak = %d exceeds cap", s.Peak)
	}
	// Some bursts must clip (the figure visibly saturates).
	if s.TruncatedDays == 0 {
		t.Error("no truncated days; bursts missing")
	}
	// Growth: the second half of the window carries more traffic.
	if s.SecondHalfMean <= s.FirstHalfMean {
		t.Errorf("no growth: first=%f second=%f", s.FirstHalfMean, s.SecondHalfMean)
	}
	if s.SecondHalfMean < 1.5*s.FirstHalfMean {
		t.Errorf("growth too weak: first=%f second=%f", s.FirstHalfMean, s.SecondHalfMean)
	}
}

func TestFig2TraceDeterministic(t *testing.T) {
	a := Fig2Trace(7)
	b := Fig2Trace(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at day %d", i)
		}
	}
	c := Fig2Trace(8)
	same := true
	for i := range a {
		if a[i].Tasks != c[i].Tasks {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestDeploymentMatchesPaperAggregates(t *testing.T) {
	d := GenerateDeployment(3)
	if got := d.TotalEndpoints(); got != DeployTotalEndpoints {
		t.Errorf("total endpoints = %d, want %d", got, DeployTotalEndpoints)
	}
	if got := len(d.UEPsPerMEP); got != DeployMEPs {
		t.Errorf("MEPs = %d, want %d", got, DeployMEPs)
	}
	if got := d.TotalUEPs(); got != DeployUEPs {
		t.Errorf("UEPs = %d, want %d", got, DeployUEPs)
	}
	// The paper reports "more than 13%" of endpoints were spawned UEPs.
	frac := d.UEPFraction()
	if frac < 0.13 || frac > 0.15 {
		t.Errorf("UEP fraction = %f, want ~0.138", frac)
	}
	// Every MEP spawned at least one endpoint; distribution heavy-tailed.
	max, min := 0, 1<<30
	for _, n := range d.UEPsPerMEP {
		if n < 1 {
			t.Fatalf("MEP with %d UEPs", n)
		}
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	if max < 5*min {
		t.Errorf("distribution not heavy-tailed: max=%d min=%d", max, min)
	}
}

func TestMPISpecs(t *testing.T) {
	specs := MPISpecs(1, 500, 8)
	if len(specs) != 500 {
		t.Fatalf("count = %d", len(specs))
	}
	narrow := 0
	for _, s := range specs {
		if s.Nodes < 1 || s.Nodes > 8 {
			t.Fatalf("nodes = %d", s.Nodes)
		}
		if s.RanksPerNode < 1 || s.RanksPerNode > 2 {
			t.Fatalf("rpn = %d", s.RanksPerNode)
		}
		if s.Nodes == 1 {
			narrow++
		}
	}
	// Skewed toward narrow applications.
	if narrow < 200 {
		t.Errorf("narrow apps = %d of 500, want majority-ish", narrow)
	}
}

func TestFormatDay(t *testing.T) {
	d := DayCount{Date: time.Date(2023, 5, 1, 0, 0, 0, 0, time.UTC), Tasks: 42}
	if got := FormatDay(d); got != "2023-05-01,42" {
		t.Errorf("got %q", got)
	}
	d.Truncated = true
	d.Tasks = Fig2Truncation
	if got := FormatDay(d); got != "2023-05-01,100000,truncated" {
		t.Errorf("got %q", got)
	}
}
