package workload

import (
	"sync/atomic"
	"time"
)

// Holder-stall regime, shared by the benchmark tables, the load
// generator and the server harness. The paper's target regime is lock
// holders that stall mid-critical-section (a preempted vCPU, a page
// fault, a GC pause): a stalled blocking-lock holder serializes everyone
// behind it for the stall, while a stalled wait-free winner is helped —
// competitors re-execute its critical section through the idempotence
// layer and move on, so the stall costs only the stalled goroutine.
//
// Every harness injects the stall symmetrically through the value-write
// path: blocking baselines draw from a StallPoint while holding their
// mutexes whenever they touch an entry's value, and the wait-free
// structures route values through a codec whose Encode draws the same
// schedule inside their critical sections. The draw is per execution,
// not per logical op — exactly the preemption model, where stalls
// strike the executing process, not the operation.

// StallPoint injects periodic stalls: every Period-th call sleeps for
// Dur, once Arm has been called — setup work (structure construction,
// prefill) draws without sleeping, so the stall schedule belongs
// entirely to the measured run. Counter-based rather than randomized
// so runs are comparable; the sharing across goroutines is what makes
// it model "some process is preempted every so often". A nil
// StallPoint never stalls.
type StallPoint struct {
	Period uint64
	Dur    time.Duration
	armed  atomic.Bool
	n      atomic.Uint64
}

// NewStallPoint builds a stall point that sleeps for dur once every
// period calls after Arm.
func NewStallPoint(period int, dur time.Duration) *StallPoint {
	return &StallPoint{Period: uint64(period), Dur: dur}
}

// Arm enables sleeping (and resets the call counter, so the first
// stall lands a full period into the run).
func (s *StallPoint) Arm() {
	if s == nil {
		return
	}
	s.n.Store(0)
	s.armed.Store(true)
}

// Hit draws one stall decision.
func (s *StallPoint) Hit() {
	if s == nil || s.Period == 0 {
		return
	}
	if s.n.Add(1)%s.Period == 0 && s.armed.Load() {
		time.Sleep(s.Dur)
	}
}

// The holder-stall regime's parameters: one value write in sixteen
// sleeps for the stall duration. At the scenario mixes this stalls
// roughly one op in twenty — a heavy but not absurd preemption rate,
// chosen so the stall cost dominates every implementation's base cost
// and the comparison measures stall handling, not constant factors.
const (
	StallPeriod = 16
	StallDur    = 4 * time.Millisecond
)
