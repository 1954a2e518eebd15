// Package fleet implements the scheduling layer the paper's §VI describes
// being built on Globus Compute: Delta profiles function execution across
// endpoints and routes each task to the endpoint predicted to finish it
// soonest; GreenFaaS applies the same model to energy, weighting predicted
// runtime by per-endpoint power draw. Both exploit multi-user endpoints'
// remotely configurable capacity.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"globuscompute/internal/metrics"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
)

// Policy selects the routing objective.
type Policy string

const (
	// Fastest minimizes predicted time-to-result (Delta).
	Fastest Policy = "fastest"
	// Greenest minimizes predicted energy = power x predicted latency
	// (GreenFaaS).
	Greenest Policy = "greenest"
	// RoundRobin ignores profiles (the baseline).
	RoundRobin Policy = "round-robin"
)

// Target is one schedulable endpoint.
type Target struct {
	Name     string
	Endpoint protocol.UUID
	// Executor submits to the endpoint.
	Executor *sdk.Executor
	// PowerWatts models the endpoint's draw for the energy objective.
	PowerWatts float64
}

// Profiler keeps exponentially weighted latency estimates per
// (function label, target) pair — Delta's predictive model.
type Profiler struct {
	mu    sync.Mutex
	alpha float64
	ewma  map[string]float64 // label|target -> seconds
	count map[string]int
}

// NewProfiler returns a profiler with smoothing factor alpha
// (0 < alpha <= 1; default 0.3).
func NewProfiler(alpha float64) *Profiler {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &Profiler{alpha: alpha, ewma: make(map[string]float64), count: make(map[string]int)}
}

func key(label, target string) string { return label + "|" + target }

// Record folds one observed latency into the estimate.
func (p *Profiler) Record(label, target string, latency time.Duration) {
	k := key(label, target)
	p.mu.Lock()
	defer p.mu.Unlock()
	sec := latency.Seconds()
	if n := p.count[k]; n == 0 {
		p.ewma[k] = sec
	} else {
		p.ewma[k] = p.alpha*sec + (1-p.alpha)*p.ewma[k]
	}
	p.count[k]++
}

// Predict returns the estimated latency and whether any observations
// exist.
func (p *Profiler) Predict(label, target string) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := key(label, target)
	if p.count[k] == 0 {
		return 0, false
	}
	return time.Duration(p.ewma[k] * float64(time.Second)), true
}

// Samples returns the observation count for a pair.
func (p *Profiler) Samples(label, target string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count[key(label, target)]
}

// SubmitFunc performs the actual submission against the chosen target.
type SubmitFunc func(t *Target) (*sdk.Future, error)

// Scheduler routes submissions across targets per its policy.
type Scheduler struct {
	policy   Policy
	targets  []*Target
	profiler *Profiler

	mu sync.Mutex
	rr int

	Metrics *metrics.Registry
}

// NewScheduler builds a scheduler over targets.
func NewScheduler(policy Policy, targets []*Target) (*Scheduler, error) {
	if len(targets) == 0 {
		return nil, errors.New("fleet: no targets")
	}
	seen := map[string]bool{}
	for _, t := range targets {
		if t.Name == "" {
			return nil, errors.New("fleet: target without a name")
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("fleet: duplicate target %q", t.Name)
		}
		seen[t.Name] = true
	}
	switch policy {
	case Fastest, Greenest, RoundRobin:
	default:
		return nil, fmt.Errorf("fleet: unknown policy %q", policy)
	}
	return &Scheduler{
		policy:   policy,
		targets:  targets,
		profiler: NewProfiler(0),
		Metrics:  metrics.NewRegistry(),
	}, nil
}

// Profiler exposes the underlying model (for inspection and tests).
func (s *Scheduler) Profiler() *Profiler { return s.profiler }

// Pick chooses the target for a function label under the policy. Unprofiled
// targets are explored first so every endpoint gets sampled.
func (s *Scheduler) Pick(label string) *Target {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.policy == RoundRobin {
		t := s.targets[s.rr%len(s.targets)]
		s.rr++
		return t
	}
	// Exploration: any target without samples gets the next task.
	for _, t := range s.targets {
		if s.profiler.Samples(label, t.Name) == 0 {
			return t
		}
	}
	best := s.targets[0]
	bestScore := math.Inf(1)
	for _, t := range s.targets {
		pred, _ := s.profiler.Predict(label, t.Name)
		score := pred.Seconds()
		if s.policy == Greenest {
			watts := t.PowerWatts
			if watts <= 0 {
				watts = 1
			}
			score *= watts // joules
		}
		if score < bestScore {
			bestScore = score
			best = t
		}
	}
	return best
}

// Submit routes one submission: it picks a target, submits through it, and
// asynchronously records the observed time-to-result into the profile.
func (s *Scheduler) Submit(label string, submit SubmitFunc) (*sdk.Future, *Target, error) {
	target := s.Pick(label)
	start := time.Now()
	fut, err := submit(target)
	if err != nil {
		return nil, target, err
	}
	s.Metrics.Counter("routed." + target.Name).Inc()
	go func() {
		<-fut.Done()
		s.profiler.Record(label, target.Name, time.Since(start))
	}()
	return fut, target, nil
}

// SubmitShell is Submit for a ShellFunction, labeled by its command
// template.
func (s *Scheduler) SubmitShell(fn *sdk.ShellFunction, kwargs map[string]string) (*sdk.Future, *Target, error) {
	return s.Submit(fn.Command, func(t *Target) (*sdk.Future, error) {
		return t.Executor.SubmitShell(fn, kwargs)
	})
}

// Routed reports how many submissions each target received.
func (s *Scheduler) Routed() map[string]int64 {
	out := make(map[string]int64, len(s.targets))
	for _, t := range s.targets {
		out[t.Name] = s.Metrics.Counter("routed." + t.Name).Value()
	}
	return out
}

// EstimatedEnergy predicts the energy (joules) a task with the given label
// would cost on each target — the GreenFaaS planning view.
func (s *Scheduler) EstimatedEnergy(label string) map[string]float64 {
	out := make(map[string]float64, len(s.targets))
	for _, t := range s.targets {
		pred, ok := s.profiler.Predict(label, t.Name)
		if !ok {
			continue
		}
		watts := t.PowerWatts
		if watts <= 0 {
			watts = 1
		}
		out[t.Name] = pred.Seconds() * watts
	}
	return out
}
