// Package workload generates the synthetic workloads behind the paper's
// quantitative artifacts: the Fig. 2 task-invocations-per-day series
// (calibrated to the reported ~17 M tasks between November 2022 and August
// 2024, with growth, burstiness, and the figure's 100,000 tasks/day
// truncation), the §VI deployment statistics (12,418 endpoints, 87
// multi-user endpoints spawning 1,718 user endpoints), and the arrival and
// size distributions used by the benchmark harness.
//
// All generators are deterministic given their seed so experiment runs
// reproduce exactly.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Fig. 2 calibration constants from the paper.
const (
	// Fig2TotalTasks is the ~17M tasks executed since November 2022 (§VI).
	Fig2TotalTasks = 17_000_000
	// Fig2Truncation is the figure's per-day display cap.
	Fig2Truncation = 100_000

	// fig2BurstProbability is the per-day chance of a campaign burst, and
	// fig2QuietProbability that of a near-idle day.
	fig2BurstProbability = 0.06
	fig2QuietProbability = 0.18
)

// Fig2Start and Fig2End bound the figure's x axis.
var (
	Fig2Start = time.Date(2022, 11, 28, 0, 0, 0, 0, time.UTC)
	Fig2End   = time.Date(2024, 8, 14, 0, 0, 0, 0, time.UTC)
)

// DayCount is one point of a tasks-per-day series. Tasks carries the
// display value (clipped at Fig2Truncation as in the figure); RawTasks is
// the executed count the §VI total refers to.
type DayCount struct {
	Date     time.Time
	Tasks    int
	RawTasks int
	// Truncated marks days whose raw count exceeded the display cap.
	Truncated bool
}

// Fig2Trace generates the task-invocations-per-day series from Fig2Start to
// Fig2End: a low-volume early period, growing and increasingly consistent
// use over time (the paper's observation), heavy-tailed campaign bursts, and
// truncation at Fig2Truncation for display. The series sums to
// Fig2TotalTasks before truncation.
func Fig2Trace(seed int64) []DayCount {
	rng := rand.New(rand.NewSource(seed))
	days := int(Fig2End.Sub(Fig2Start).Hours()/24) + 1
	raw := make([]float64, days)
	var sum float64
	for i := 0; i < days; i++ {
		// Growth: the daily baseline rises ~8x across the window.
		progress := float64(i) / float64(days-1)
		base := math.Pow(8, progress)
		// Consistency: early days are spikier (higher variance).
		noise := rng.NormFloat64()*(1.2-0.8*progress) + 1
		if noise < 0.05 {
			noise = 0.05
		}
		v := base * noise
		switch {
		case rng.Float64() < fig2QuietProbability*(1.5-progress):
			// Quiet day: almost no activity (weekends, early adoption).
			v *= 0.02
		case rng.Float64() < fig2BurstProbability:
			// Campaign burst: heavy-tailed multiplier.
			v *= 5 + rng.ExpFloat64()*40
		}
		raw[i] = v
		sum += v
	}
	// Calibrate so the series totals Fig2TotalTasks before truncation.
	scale := float64(Fig2TotalTasks) / sum
	out := make([]DayCount, days)
	for i := range raw {
		count := int(raw[i] * scale)
		dc := DayCount{Date: Fig2Start.AddDate(0, 0, i), Tasks: count, RawTasks: count}
		if count > Fig2Truncation {
			dc.Tasks = Fig2Truncation
			dc.Truncated = true
		}
		out[i] = dc
	}
	return out
}

// TraceStats summarizes a day series.
type TraceStats struct {
	Days          int
	Total         int64 // displayed (truncated) sum
	RawTotal      int64 // executed tasks before truncation
	Peak          int
	TruncatedDays int
	Mean          float64
	// FirstHalfMean and SecondHalfMean expose the growth trend.
	FirstHalfMean  float64
	SecondHalfMean float64
}

// Summarize computes TraceStats.
func Summarize(trace []DayCount) TraceStats {
	var s TraceStats
	s.Days = len(trace)
	half := len(trace) / 2
	var firstSum, secondSum float64
	for i, d := range trace {
		s.Total += int64(d.Tasks)
		s.RawTotal += int64(d.RawTasks)
		if d.Tasks > s.Peak {
			s.Peak = d.Tasks
		}
		if d.Truncated {
			s.TruncatedDays++
		}
		if i < half {
			firstSum += float64(d.Tasks)
		} else {
			secondSum += float64(d.Tasks)
		}
	}
	if s.Days > 0 {
		s.Mean = float64(s.Total) / float64(s.Days)
	}
	if half > 0 {
		s.FirstHalfMean = firstSum / float64(half)
		s.SecondHalfMean = secondSum / float64(len(trace)-half)
	}
	return s
}

// §VI deployment statistics.
const (
	DeployTotalEndpoints = 12_418
	DeployMEPs           = 87
	DeployUEPs           = 1_718
)

// Deployment is a synthetic §VI-scale deployment inventory.
type Deployment struct {
	// SingleUser counts ordinary endpoints.
	SingleUser int
	// MEPs counts multi-user endpoints, each with its spawned UEP count.
	UEPsPerMEP []int
}

// TotalEndpoints returns single-user + MEPs + spawned UEPs.
func (d Deployment) TotalEndpoints() int {
	total := d.SingleUser + len(d.UEPsPerMEP)
	for _, n := range d.UEPsPerMEP {
		total += n
	}
	return total
}

// TotalUEPs sums spawned user endpoints.
func (d Deployment) TotalUEPs() int {
	total := 0
	for _, n := range d.UEPsPerMEP {
		total += n
	}
	return total
}

// UEPFraction is the paper's "more than 13%" statistic: spawned UEPs as a
// fraction of all endpoints.
func (d Deployment) UEPFraction() float64 {
	t := d.TotalEndpoints()
	if t == 0 {
		return 0
	}
	return float64(d.TotalUEPs()) / float64(t)
}

// GenerateDeployment builds a deployment matching the paper's aggregates:
// 87 MEPs whose spawned-UEP counts follow a heavy-tailed (Zipf-like)
// distribution summing to 1,718, within a 12,418-endpoint fleet.
func GenerateDeployment(seed int64) Deployment {
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, DeployMEPs)
	var wsum float64
	for i := range weights {
		// Zipf-ish: a few gateways spawn most UEPs.
		weights[i] = 1 / math.Pow(float64(i+1), 1.1) * (0.5 + rng.Float64())
		wsum += weights[i]
	}
	ueps := make([]int, DeployMEPs)
	assigned := 0
	for i, w := range weights {
		n := int(w / wsum * DeployUEPs)
		ueps[i] = n
		assigned += n
	}
	// Distribute the rounding remainder; every MEP spawned at least one.
	for i := 0; assigned < DeployUEPs; i = (i + 1) % DeployMEPs {
		ueps[i]++
		assigned++
	}
	for i := range ueps {
		if ueps[i] == 0 {
			ueps[i] = 1
			assigned++
		}
	}
	// Trim any overshoot from the at-least-one rule off the largest MEP.
	for assigned > DeployUEPs {
		maxI := 0
		for i, n := range ueps {
			if n > ueps[maxI] {
				maxI = i
			}
		}
		ueps[maxI]--
		assigned--
	}
	single := DeployTotalEndpoints - DeployMEPs - DeployUEPs
	return Deployment{SingleUser: single, UEPsPerMEP: ueps}
}

// MPISpecStream generates resource specifications for MPI packing
// experiments: a mix of narrow and wide applications.
type MPISpec struct {
	Nodes        int
	RanksPerNode int
	DurationMS   float64
}

// MPISpecs draws count specifications with nodes in [1, maxNodes],
// skewed toward narrow applications.
func MPISpecs(seed int64, count, maxNodes int) []MPISpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]MPISpec, count)
	for i := range out {
		// Geometric-ish: P(1 node) highest.
		nodes := 1
		for nodes < maxNodes && rng.Float64() < 0.45 {
			nodes++
		}
		out[i] = MPISpec{
			Nodes:        nodes,
			RanksPerNode: 1 + rng.Intn(2),
			DurationMS:   20 + rng.ExpFloat64()*40,
		}
	}
	return out
}

// FormatDay renders a DayCount as the CSV row the figure harness prints.
func FormatDay(d DayCount) string {
	flag := ""
	if d.Truncated {
		flag = ",truncated"
	}
	return fmt.Sprintf("%s,%d%s", d.Date.Format("2006-01-02"), d.Tasks, flag)
}
