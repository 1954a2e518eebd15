package scheduler

import (
	"math"
	"sync"
	"time"
)

// Fairshare tracking: when enabled, each user's historical consumption
// (node-seconds, exponentially decayed) lowers the effective priority of
// their pending jobs, as with Slurm's fairshare factor. Heavy users fall
// behind light users at equal nominal priority.

// fairshare holds decayed per-user usage.
type fairshare struct {
	mu sync.Mutex
	// usage is decayed node-seconds per user.
	usage map[string]float64
	last  map[string]time.Time
	// halflife controls the decay rate.
	halflife time.Duration
	now      func() time.Time
}

func newFairshare(halflife time.Duration) *fairshare {
	if halflife <= 0 {
		halflife = 10 * time.Minute
	}
	return &fairshare{
		usage:    make(map[string]float64),
		last:     make(map[string]time.Time),
		halflife: halflife,
		now:      time.Now,
	}
}

// decayLocked brings a user's usage up to date.
func (f *fairshare) decayLocked(user string) {
	now := f.now()
	if prev, ok := f.last[user]; ok {
		dt := now.Sub(prev)
		if dt > 0 {
			f.usage[user] *= math.Pow(0.5, float64(dt)/float64(f.halflife))
		}
	}
	f.last[user] = now
}

// charge records consumption for a finished (or cancelled) job.
func (f *fairshare) charge(user string, nodes int, elapsed time.Duration) {
	if user == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.decayLocked(user)
	f.usage[user] += float64(nodes) * elapsed.Seconds()
}

// current returns a user's decayed usage.
func (f *fairshare) current(user string) float64 {
	if user == "" {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.decayLocked(user)
	return f.usage[user]
}

// EnableFairshare turns on usage-weighted scheduling with the given decay
// halflife (<=0 selects 10 minutes) and usage weight: effective priority is
// Priority - weight*log1p(decayed node-seconds). Call before submitting.
func (s *Scheduler) EnableFairshare(halflife time.Duration, weight float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if weight <= 0 {
		weight = 1
	}
	s.fair = newFairshare(halflife)
	s.fairWeight = weight
}

// effectivePriorityLocked computes a job's queue rank under fairshare.
func (s *Scheduler) effectivePriorityLocked(j *job) float64 {
	p := float64(j.info.Spec.Priority)
	if s.fair == nil {
		return p
	}
	return p - s.fairWeight*math.Log1p(s.fair.current(j.info.Spec.User))
}
