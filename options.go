package wflocks

import (
	"fmt"
	"time"
)

// config collects the Manager options before validation.
type config struct {
	kappa         int
	kappaSet      bool
	maxLocks      int
	maxCritical   int
	numProcs      int
	delayC        int
	delayC1       int
	unknownBounds bool
	noFastPath    bool
	metrics       bool
	traceRate     int
	traceRing     int
	wdDelaySteps  uint64
	wdHelpNanos   uint64
	wdAlertCap    int
	seed          uint64
	retry         RetryPolicy
}

// Option configures a Manager. Options validate their arguments: New
// returns a descriptive error for any nonsense value rather than
// building a manager whose guarantees are silently void.
type Option func(*config) error

// WithKappa sets κ, the maximum number of simultaneous attempts that
// will ever contend on a single lock. Required unless WithUnknownBounds
// is used. The fairness guarantee (success probability ≥ 1/(κL)) and
// the step bound O(κ²L²T) are stated in terms of it.
func WithKappa(kappa int) Option {
	return func(c *config) error {
		if kappa <= 0 {
			return fmt.Errorf("wflocks: WithKappa: κ must be positive, got %d", kappa)
		}
		c.kappa = kappa
		c.kappaSet = true
		return nil
	}
}

// WithMaxLocks sets L, the maximum number of locks in any single
// acquisition. Default 2 (the dining-philosophers shape).
func WithMaxLocks(l int) Option {
	return func(c *config) error {
		if l <= 0 {
			return fmt.Errorf("wflocks: WithMaxLocks: L must be positive, got %d", l)
		}
		c.maxLocks = l
		return nil
	}
}

// WithMaxCriticalSteps sets T, the maximum number of shared-memory
// operations any critical section performs. Default 64. A generous T
// costs delay steps only (it scales the known-bounds delays
// T0 = c·κ²L²T and T1 = c′·κLT), not memory per call: a critical
// section's response log grows with the operations it actually runs.
func WithMaxCriticalSteps(t int) Option {
	return func(c *config) error {
		if t <= 0 {
			return fmt.Errorf("wflocks: WithMaxCriticalSteps: T must be positive, got %d", t)
		}
		c.maxCritical = t
		return nil
	}
}

// WithUnknownBounds selects the variant that needs no κ/L knowledge
// (paper Section 6.2, Theorem 6.10). numProcs is P, the total number of
// processes that will ever run attempts concurrently; it sizes the
// per-lock announcement arrays. The success probability loses a
// log(κLT) factor compared to the known-bounds variant.
func WithUnknownBounds(numProcs int) Option {
	return func(c *config) error {
		if numProcs <= 0 {
			return fmt.Errorf("wflocks: WithUnknownBounds: P must be positive, got %d", numProcs)
		}
		c.unknownBounds = true
		c.numProcs = numProcs
		return nil
	}
}

// WithDelayConstants overrides the paper's "sufficiently large"
// constants c and c′ in the fixed delays T0 = c·κ²L²T and T1 = c′·κLT.
// Smaller constants shorten every attempt but risk breaking the
// fixed-timing property the fairness proof needs; the defaults are
// calibrated with comfortable margin.
func WithDelayConstants(c0, c1 int) Option {
	return func(c *config) error {
		if c0 <= 0 || c1 <= 0 {
			return fmt.Errorf("wflocks: WithDelayConstants: constants must be positive, got (%d, %d)", c0, c1)
		}
		c.delayC = c0
		c.delayC1 = c1
		return nil
	}
}

// WithFastPath enables or disables the uncontended fast path (default
// enabled): an acquisition that observes every requested lock free
// skips the delay stalls entirely and pays only the protocol itself.
// Safety — mutual exclusion and wait-freedom — is identical either
// way; what the skip trades is the paper's adversarial fairness bound
// in the window where two attempts race from an observed-free lock
// (that race is settled by random priorities, which is symmetric-fair
// but not the adversarial guarantee). Disable it only when you need
// attempt timing to be a pure function of configuration, e.g. to
// reproduce the paper's fixed-schedule behavior exactly.
func WithFastPath(enabled bool) Option {
	return func(c *config) error {
		c.noFastPath = !enabled
		return nil
	}
}

// WithMetrics enables the manager's latency metrics: per-P sharded
// histograms of acquisition latency (Do/DoCtx/Lock/LockCtx and the
// structures' operations, Atomic transactions included), of the
// delay-schedule steps charged per attempt, and of help-run wall
// durations, all exposed through Manager.Observe. Recording is
// allocation-free and sharded by process, so the cost is two clock
// reads and a handful of uncontended atomic adds per acquisition;
// disabled (the default), the hot path pays a single nil check.
func WithMetrics() Option {
	return func(c *config) error {
		c.metrics = true
		return nil
	}
}

// WithTracing enables the sampled flight recorder (implying
// WithMetrics): one attempt in sampleRate (rounded up to a power of
// two) records its lifecycle — start, fast path, each delay point with
// its computed bound, each descriptor it helped with lock ID and wall
// duration, win or lose — into a fixed-size lock-free event ring read
// by Manager.Observe. Unsampled attempts pay one atomic increment and
// a branch; sampled attempts pay one ring write per event, never an
// allocation or a lock. sampleRate 1 traces every attempt (tests and
// offline debugging); production services run 1/64 or sparser.
func WithTracing(sampleRate int) Option {
	return func(c *config) error {
		if sampleRate <= 0 {
			return fmt.Errorf("wflocks: WithTracing: sample rate must be positive, got %d", sampleRate)
		}
		c.metrics = true
		c.traceRate = sampleRate
		return nil
	}
}

// WithTraceRing overrides the flight recorder's event capacity
// (default 4096, rounded up to a power of two). Only meaningful with
// WithTracing.
func WithTraceRing(events int) Option {
	return func(c *config) error {
		if events <= 0 {
			return fmt.Errorf("wflocks: WithTraceRing: capacity must be positive, got %d", events)
		}
		c.traceRing = events
		return nil
	}
}

// WithStallWatchdog arms the stall watchdog (implying WithMetrics): an
// attempt charged more than maxDelaySteps delay-schedule steps, or a
// single help run longer than maxHelpRun wall time, counts a stall
// alert, attributes it to the offending lock, and lands in a small
// alert ring — all readable through Manager.Observe (StallAlerts,
// Alerts, Locks). Either bound may be zero to disable that check;
// delay-step excessions typically mean the delay schedule is charging
// bystanders for a stalled holder, help-run excessions mean helpers
// are executing a critical section whose owner stopped mid-way. The
// checks ride the recording paths already guarded by the metrics nil
// check, so an armed watchdog costs two predictable branches per
// attempt.
func WithStallWatchdog(maxDelaySteps uint64, maxHelpRun time.Duration) Option {
	return func(c *config) error {
		if maxDelaySteps == 0 && maxHelpRun <= 0 {
			return fmt.Errorf("wflocks: WithStallWatchdog: at least one bound must be positive")
		}
		if maxHelpRun < 0 {
			return fmt.Errorf("wflocks: WithStallWatchdog: help-run bound must not be negative, got %v", maxHelpRun)
		}
		c.metrics = true
		c.wdDelaySteps = maxDelaySteps
		c.wdHelpNanos = uint64(maxHelpRun)
		if c.wdAlertCap == 0 {
			c.wdAlertCap = 64
		}
		return nil
	}
}

// WithSeed seeds the per-process random priority streams. Runs with the
// same seed and deterministic scheduling draw the same priorities;
// the default seed of zero is fine for production use.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithRetryPolicy sets the policy Do, DoCtx and Lock apply between
// failed attempts. The default is RetryGosched, which yields the
// processor between attempts. See RetryImmediate and RetryBackoff for
// the alternatives.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *config) error {
		if p == nil {
			return fmt.Errorf("wflocks: WithRetryPolicy: policy must not be nil")
		}
		c.retry = p
		return nil
	}
}

// validate audits the assembled configuration for cross-option
// consistency. Per-option range checks happen in the options
// themselves; validate catches what only the combination reveals.
func (c *config) validate() error {
	if !c.kappaSet && !c.unknownBounds {
		return fmt.Errorf("wflocks: New: one of WithKappa or WithUnknownBounds is required " +
			"(the algorithm must either know the contention bound κ or be told the process count P)")
	}
	return nil
}
