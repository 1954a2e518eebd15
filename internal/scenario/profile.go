// Package scenario is the load-and-measure harness: declarative traffic
// profiles (base + burst rates, tenant mix, payload mix) drive a loadgen
// against a running gc-webservice while a poller scrapes /metrics,
// /metrics/fleet, and /debug/fleet at a fixed interval, recording KPI time
// series. Each run emits samples.csv + summary.json with run-validity gates
// (cohort completeness, minimum sample count) and KPI threshold gates — the
// primary KPI is the fleet backlog p95, which after a burst must recover to
// near its steady-state level within a bounded number of poll intervals.
//
// The design follows the benchstat-over-scrapes pattern: measure the system
// from the outside through the same observability surface operators use, so
// a regression in the metrics pipeline fails the run just like a regression
// in the data path.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"globuscompute/internal/workload"
)

// Phase labels attached to every sample, derived from the profile's burst
// schedule at the sample's offset.
const (
	PhaseSteady   = "steady"   // before the first burst window (or no burst)
	PhaseBurst    = "burst"    // inside a burst window
	PhaseRecovery = "recovery" // after a burst window
)

// TenantSpec is one synthetic tenant: a name (used for idempotency-key
// prefixes and reporting) and its base submission rate. Interactive tenants
// submit with the latency-sensitive priority class.
type TenantSpec struct {
	Name        string  `json:"name"`
	RatePerSec  float64 `json:"rate_per_sec"`
	Interactive bool    `json:"interactive,omitempty"`
}

// PayloadBand is one entry of the payload-size mix: tasks draw their
// argument size from the bands proportionally to Weight.
type PayloadBand struct {
	Bytes  int     `json:"bytes"`
	Weight float64 `json:"weight"`
}

// BurstSpec schedules overload windows: every burst multiplies all tenant
// rates by Factor for DurationSec. The first burst begins AfterSec into the
// run; EverySec > 0 repeats bursts at that cadence until the run ends.
type BurstSpec struct {
	AfterSec    float64 `json:"after_sec"`
	DurationSec float64 `json:"duration_sec"`
	EverySec    float64 `json:"every_sec,omitempty"`
	Factor      float64 `json:"factor"`
}

// GateSpec configures the run-validity and KPI gates evaluated over the
// recorded samples. Validity gates decide whether the run measured anything
// at all; KPI gates decide whether the system behaved.
type GateSpec struct {
	// MinSamples is the run-validity floor on recorded samples.
	MinSamples int `json:"min_samples"`
	// MinSteadySamples is how many pre-burst samples the steady baseline
	// needs before the recovery gate is meaningful (default 4 when a burst
	// is scheduled).
	MinSteadySamples int `json:"min_steady_samples,omitempty"`
	// MinCompleteness is the cohort gate: observed-terminal / accepted must
	// reach this fraction by the end of the drain (default 1.0 — every
	// accepted task must reach a terminal state).
	MinCompleteness float64 `json:"min_completeness,omitempty"`
	// Recovery gate (burst profiles): after the last burst ends, the
	// trailing backlog p95 (a RecoveryWindow-sample sliding window) must
	// fall to RecoveryFactor x the steady-state backlog p95 — floored at
	// RecoveryFloor tasks so a near-zero steady baseline doesn't demand the
	// impossible — within RecoverWithin poll intervals.
	RecoveryFactor float64 `json:"recovery_factor,omitempty"`
	RecoveryFloor  float64 `json:"recovery_floor,omitempty"`
	RecoverWithin  int     `json:"recover_within,omitempty"`
	RecoveryWindow int     `json:"recovery_window,omitempty"`
	// MaxSteadyBacklogP95 bounds the steady-phase backlog p95 (0 = gate
	// off). At low utilization backlog should hover near the in-service
	// task count, so a small ceiling catches queue leaks.
	MaxSteadyBacklogP95 float64 `json:"max_steady_backlog_p95,omitempty"`
	// MaxSteadyShedRatio bounds steady-phase sheds / submissions. The
	// default 0 means no steady-state sheds are tolerated; set negative to
	// disable (e.g. profiles that run hot on purpose). Burst-phase sheds
	// never gate — shedding under overload is the designed behavior.
	MaxSteadyShedRatio float64 `json:"max_steady_shed_ratio,omitempty"`
}

// Profile is one declarative scenario: who submits, how fast, with what
// payloads, for how long, and what the recorded series must look like for
// the run to pass.
type Profile struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// DurationSec is the load window. Sampling continues through the drain
	// that follows, so post-burst recovery is observed even when the last
	// burst ends near the load window's edge.
	DurationSec     float64 `json:"duration_sec"`
	PollIntervalSec float64 `json:"poll_interval_sec"`
	// StatusPollIntervalSec paces the client-side roundtrip tracker
	// (batch_status sweeps over outstanding tasks). Default 0.25.
	StatusPollIntervalSec float64 `json:"status_poll_interval_sec,omitempty"`
	// DrainTimeoutSec bounds the wait for outstanding tasks after the load
	// window closes (default 30). Tasks still outstanding at the deadline
	// count against cohort completeness.
	DrainTimeoutSec float64 `json:"drain_timeout_sec,omitempty"`
	// SubmitBatch is tasks per POST /v2/submit (default 8).
	SubmitBatch int           `json:"submit_batch,omitempty"`
	Tenants     []TenantSpec  `json:"tenants"`
	Burst       *BurstSpec    `json:"burst,omitempty"`
	PayloadMix  []PayloadBand `json:"payload_mix,omitempty"`
	// ShellFraction of tasks submit as shell-kind payloads (rendered
	// ShellSpec); the rest are python-kind identity calls.
	ShellFraction float64 `json:"shell_fraction,omitempty"`
	// PprofSeconds > 0 captures a CPU profile (plus a heap snapshot) from
	// the webservice's /debug/pprof at the peak of the first burst, written
	// next to samples.csv. Requires the service to run with -pprof.
	PprofSeconds int      `json:"pprof_seconds,omitempty"`
	Gates        GateSpec `json:"gates"`
	Seed         int64    `json:"seed,omitempty"`
}

// normalized returns a copy with defaults applied.
func (p Profile) normalized() Profile {
	if p.PollIntervalSec <= 0 {
		p.PollIntervalSec = 0.5
	}
	if p.StatusPollIntervalSec <= 0 {
		p.StatusPollIntervalSec = 0.25
	}
	if p.DrainTimeoutSec <= 0 {
		p.DrainTimeoutSec = 30
	}
	if p.SubmitBatch <= 0 {
		p.SubmitBatch = 8
	}
	if len(p.PayloadMix) == 0 {
		p.PayloadMix = []PayloadBand{{Bytes: 256, Weight: 0.7}, {Bytes: 2048, Weight: 0.25}, {Bytes: 16384, Weight: 0.05}}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Gates.MinCompleteness <= 0 {
		p.Gates.MinCompleteness = 1.0
	}
	if p.Burst != nil {
		if p.Gates.MinSteadySamples <= 0 {
			p.Gates.MinSteadySamples = 4
		}
		if p.Gates.RecoveryFactor <= 0 {
			p.Gates.RecoveryFactor = 2.0
		}
		if p.Gates.RecoveryFloor <= 0 {
			p.Gates.RecoveryFloor = 64
		}
		if p.Gates.RecoveryWindow <= 0 {
			p.Gates.RecoveryWindow = 4
		}
		if p.Gates.RecoverWithin <= 0 {
			p.Gates.RecoverWithin = 24
		}
	}
	return p
}

// Validate rejects profiles that cannot drive a run.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("scenario: profile needs a name")
	}
	if p.DurationSec <= 0 {
		return fmt.Errorf("scenario: profile %q: duration_sec must be > 0", p.Name)
	}
	if len(p.Tenants) == 0 {
		return fmt.Errorf("scenario: profile %q: at least one tenant", p.Name)
	}
	total := 0.0
	for _, t := range p.Tenants {
		if t.Name == "" || t.RatePerSec <= 0 {
			return fmt.Errorf("scenario: profile %q: tenant needs name and rate_per_sec > 0", p.Name)
		}
		total += t.RatePerSec
	}
	if total <= 0 {
		return fmt.Errorf("scenario: profile %q: zero aggregate rate", p.Name)
	}
	if b := p.Burst; b != nil {
		if b.Factor <= 0 || b.DurationSec <= 0 {
			return fmt.Errorf("scenario: profile %q: burst needs factor and duration_sec > 0", p.Name)
		}
		if b.AfterSec < 0 || b.AfterSec+b.DurationSec > p.DurationSec {
			return fmt.Errorf("scenario: profile %q: first burst [%g,%g) outside run window", p.Name, b.AfterSec, b.AfterSec+b.DurationSec)
		}
		if b.EverySec > 0 && b.EverySec < b.DurationSec {
			return fmt.Errorf("scenario: profile %q: burst cadence shorter than burst duration", p.Name)
		}
	}
	if p.ShellFraction < 0 || p.ShellFraction > 1 {
		return fmt.Errorf("scenario: profile %q: shell_fraction outside [0,1]", p.Name)
	}
	for _, b := range p.PayloadMix {
		if b.Bytes < 0 || b.Weight < 0 {
			return fmt.Errorf("scenario: profile %q: negative payload band", p.Name)
		}
	}
	return nil
}

// TotalRatePerSec is the aggregate steady-state submission rate.
func (p Profile) TotalRatePerSec() float64 {
	total := 0.0
	for _, t := range p.Tenants {
		total += t.RatePerSec
	}
	return total
}

// inBurst reports whether offset falls inside a scheduled burst window.
func (p Profile) inBurst(offset time.Duration) bool {
	b := p.Burst
	if b == nil {
		return false
	}
	o := offset.Seconds()
	if o < b.AfterSec {
		return false
	}
	since := o - b.AfterSec
	if b.EverySec > 0 {
		// Position within the repeating cadence. A window that starts
		// inside the run counts even when it extends past the nominal end —
		// load simply stops at the run boundary.
		k := int(since / b.EverySec)
		start := b.AfterSec + float64(k)*b.EverySec
		return start < p.DurationSec && o < start+b.DurationSec
	}
	return since < b.DurationSec
}

// RateFactor is the rate multiplier at a given offset (1 outside bursts).
func (p Profile) RateFactor(offset time.Duration) float64 {
	if p.inBurst(offset) {
		return p.Burst.Factor
	}
	return 1
}

// PhaseAt labels an offset: steady until the first burst begins, burst
// inside a window, recovery anywhere after a window.
func (p Profile) PhaseAt(offset time.Duration) string {
	b := p.Burst
	if b == nil {
		return PhaseSteady
	}
	if offset.Seconds() < b.AfterSec {
		return PhaseSteady
	}
	if p.inBurst(offset) {
		return PhaseBurst
	}
	return PhaseRecovery
}

// LastBurstEnd is the offset at which the final scheduled burst window
// closes (false when the profile has no burst).
func (p Profile) LastBurstEnd() (time.Duration, bool) {
	b := p.Burst
	if b == nil {
		return 0, false
	}
	end := b.AfterSec + b.DurationSec
	if b.EverySec > 0 {
		for start := b.AfterSec + b.EverySec; start < p.DurationSec; start += b.EverySec {
			end = start + b.DurationSec
		}
	}
	return time.Duration(end * float64(time.Second)), true
}

// LoadProfile reads a profile from a JSON file.
func LoadProfile(path string) (Profile, error) {
	var p Profile
	data, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("scenario: parse %s: %w", path, err)
	}
	p = p.normalized()
	return p, p.Validate()
}

// tenantMix derives a heavy-tailed tenant set from the workload model: n
// tenants whose rates sum to totalPerSec (the paper's skewed multi-tenant
// traffic, reused as the loadgen's tenant mix).
func tenantMix(seed int64, n int, totalPerSec float64, interactiveEvery int) []TenantSpec {
	rates := workload.TenantRates(seed, n, totalPerSec, 1.1)
	specs := make([]TenantSpec, len(rates))
	for i, r := range rates {
		specs[i] = TenantSpec{Name: r.Name, RatePerSec: r.RatePerSec}
		if interactiveEvery > 0 && i%interactiveEvery == 0 {
			specs[i].Interactive = true
		}
	}
	return specs
}

// Builtin returns a named built-in profile. The short "steady" and "burst"
// profiles size to a 16-agent simulated fleet at 20ms/task (800 tasks/s of
// capacity): steady runs at 25% utilization, burst offers 2x capacity for a
// few seconds and must recover. The "-full" variants run the same shapes
// long enough for stable percentiles (minutes, repeated bursts).
func Builtin(name string) (Profile, bool) {
	var p Profile
	switch name {
	case "steady":
		p = Profile{
			Name:        "steady",
			Description: "steady-state: 200 tasks/s across 6 tenants for 10s; no sheds, flat backlog",
			DurationSec: 10, PollIntervalSec: 0.5,
			Tenants:       tenantMix(7, 6, 200, 3),
			ShellFraction: 0.2,
			Gates: GateSpec{
				MinSamples:          15,
				MaxSteadyBacklogP95: 96,
			},
		}
	case "burst":
		p = Profile{
			Name:        "burst",
			Description: "8x burst for 4s over a 200 tasks/s base; backlog p95 must recover within 12s",
			DurationSec: 24, PollIntervalSec: 0.5,
			Tenants:       tenantMix(11, 6, 200, 3),
			ShellFraction: 0.2,
			Burst:         &BurstSpec{AfterSec: 6, DurationSec: 4, Factor: 8},
			PprofSeconds:  2,
			Gates: GateSpec{
				MinSamples:    36,
				RecoverWithin: 24, // 12s at the 0.5s poll interval
			},
		}
	case "steady-full":
		p = Profile{
			Name:        "steady-full",
			Description: "steady-state soak: 200 tasks/s for 2 minutes",
			DurationSec: 120, PollIntervalSec: 1,
			Tenants:       tenantMix(7, 8, 200, 3),
			ShellFraction: 0.2,
			Gates: GateSpec{
				MinSamples:          100,
				MaxSteadyBacklogP95: 96,
			},
		}
	case "burst-full":
		p = Profile{
			Name:        "burst-full",
			Description: "repeated 8x bursts (6s every 40s) over 3 minutes; every recovery gated",
			DurationSec: 180, PollIntervalSec: 1,
			Tenants:       tenantMix(11, 8, 200, 3),
			ShellFraction: 0.2,
			Burst:         &BurstSpec{AfterSec: 20, DurationSec: 6, EverySec: 40, Factor: 8},
			PprofSeconds:  3,
			Gates: GateSpec{
				MinSamples:    150,
				RecoverWithin: 20,
			},
		}
	default:
		return Profile{}, false
	}
	return p.normalized(), true
}

// BuiltinNames lists the built-in profiles for CLI help.
func BuiltinNames() []string { return []string{"steady", "burst", "steady-full", "burst-full"} }
