package wflocks

import (
	"time"

	"wflocks/internal/obs"
	"wflocks/internal/stats"
)

// HistStats summarizes one of the manager's latency histograms. The
// underlying histogram is HDR-style log-linear (relative quantization
// error ≤ 3.1%), merged from per-P shards at snapshot time, so a
// HistStats is a consistent point-in-time view that cost the hot path
// nothing to produce.
type HistStats struct {
	// Count is the number of observations recorded.
	Count uint64
	// Mean is the exact arithmetic mean (0 when empty).
	Mean float64
	// Max is the exact maximum observation (0 when empty).
	Max uint64

	h *stats.LogHist
}

// Quantile reports the q-quantile (0 <= q <= 1) of the distribution,
// within the histogram's relative quantization error of the true order
// statistic. An empty histogram reports 0.
func (s HistStats) Quantile(q float64) uint64 {
	if s.h == nil {
		return 0
	}
	return s.h.Quantile(q)
}

func histStatsOf(h *stats.LogHist) HistStats {
	return HistStats{Count: h.Count(), Mean: h.Mean(), Max: h.Max(), h: h}
}

// Sub returns the distribution of observations recorded after prev was
// taken, assuming prev is an earlier snapshot of the same histogram.
// Counts subtract bucket-wise saturating at zero; Max is the lifetime
// maximum (an upper bound for the interval — exact interval maxima are
// not recoverable from two snapshots), and quantiles clamp to it.
func (s HistStats) Sub(prev HistStats) HistStats {
	if s.h == nil {
		return HistStats{}
	}
	return histStatsOf(s.h.Sub(prev.h))
}

// TraceEvent is one decoded flight-recorder entry (see WithTracing).
type TraceEvent struct {
	// Seq is the event's global sequence number: gap-free at the writer,
	// so gaps in a snapshot reveal exactly how many events the ring
	// evicted between the ones retained.
	Seq uint64
	// Kind names the lifecycle point: "start", "fastpath", "delay",
	// "help", "win" or "lose".
	Kind string
	// Pid is the emitting process (the attempt's owner).
	Pid int
	// LockID is the lock involved where one is: the attempt's first
	// lock for "start", the helped descriptor's first lock for "help".
	LockID int
	// Value is the kind-specific payload: lock-set size for "start",
	// charged stall steps for "delay", help wall-duration nanoseconds
	// for "help".
	Value uint64
	// Time is the event's wall-clock timestamp.
	Time time.Time
}

// ObsSnapshot is a point-in-time view of a manager's latency metrics
// and flight recorder (see WithMetrics and WithTracing). Like Stats, it
// is taken without stopping the world: under live traffic the counters
// can be mutually skewed by in-flight attempts, at quiescence they are
// exact.
type ObsSnapshot struct {
	// Enabled reports whether the manager records metrics at all; the
	// zero snapshot (metrics off) has it false and everything else empty.
	Enabled bool

	// Acquire is the distribution of acquisition latencies in
	// nanoseconds: Do/DoCtx/Lock/LockCtx call start to winning attempt,
	// retries included, plus the structures' single-key operations and
	// Atomic transactions.
	Acquire HistStats
	// DelayIters is the distribution of delay-schedule steps charged per
	// attempt — how much of the paper's fixed-delay (or power-of-two
	// padding) budget attempts actually burn. Fast-path attempts record
	// 0 here.
	DelayIters HistStats
	// HelpRun is the distribution of help-run wall durations in
	// nanoseconds: the time an attempt's helping phase spent running one
	// other descriptor to a decision.
	HelpRun HistStats

	// AttemptSteps is the total simulated steps taken by finished
	// attempts; DelaySteps is the portion burned in delay stalls.
	// DelaySteps/AttemptSteps is the delay share (see DelayShare).
	AttemptSteps uint64
	DelaySteps   uint64
	// HelpNanos is the total wall time spent helping — running other
	// attempts' descriptors to a decision.
	HelpNanos uint64

	// StallAlerts is the total number of watchdog excessions recorded
	// (see WithStallWatchdog); 0 when the watchdog is disarmed.
	StallAlerts uint64

	// Events is the flight recorder's current window, oldest first; nil
	// unless WithTracing was configured.
	Events []TraceEvent
	// Alerts is the watchdog's alert ring, oldest first: the last
	// excessions with kind "alert-delay" (Value = charged delay steps)
	// or "alert-help" (Value = help-run nanoseconds) and the offending
	// lock. Nil unless WithStallWatchdog fired at least once.
	Alerts []TraceEvent
	// Locks is the per-lock stall attribution, ordered by lock ID: for
	// each lock that charged anyone anything, how many help runs pushed
	// attempts past its holders (and their total wall time), how many
	// delay-schedule steps it charged to bystanders, and how many
	// watchdog alerts it triggered. Nil without such activity. Lock IDs
	// match Stats().Locks and the flight recorder's events.
	Locks []LockAttrib
}

// LockAttrib is one lock's stall-attribution counters (see
// ObsSnapshot.Locks).
type LockAttrib struct {
	// LockID identifies the lock (matching LockStats.ID).
	LockID int
	// Helps counts help runs that ran a still-undecided descriptor on
	// this lock to a decision — attempts pushed past a holder.
	Helps uint64
	// HelpNanos is the total wall time of those help runs: what the
	// lock's (possibly stalled) holders cost bystanders.
	HelpNanos uint64
	// DelaySteps is the total delay-schedule steps burned by attempts
	// whose first lock this was.
	DelaySteps uint64
	// Alerts counts watchdog excessions attributed to this lock.
	Alerts uint64
}

// DelayShare is DelaySteps/AttemptSteps — the fraction of all attempt
// steps burned in the delay schedule — or 0 before any attempt.
func (o ObsSnapshot) DelayShare() float64 {
	if o.AttemptSteps == 0 {
		return 0
	}
	return float64(o.DelaySteps) / float64(o.AttemptSteps)
}

// Sub returns the activity recorded after prev was taken, assuming
// prev is an earlier Observe() of the same manager — the counterpart to
// StatsSnapshot.Sub for interval (rather than lifetime) views. Counters
// subtract saturating at zero; the histograms subtract bucket-wise (see
// HistStats.Sub — interval maxima are upper bounds). Per-lock rows are
// matched by ID; a lock absent from prev keeps its absolute counters.
// Events and Alerts are already windows, not cumulative — Sub keeps the
// current window as-is.
func (o ObsSnapshot) Sub(prev ObsSnapshot) ObsSnapshot {
	if !o.Enabled {
		return o
	}
	d := o
	d.Acquire = o.Acquire.Sub(prev.Acquire)
	d.DelayIters = o.DelayIters.Sub(prev.DelayIters)
	d.HelpRun = o.HelpRun.Sub(prev.HelpRun)
	d.AttemptSteps = subSat(o.AttemptSteps, prev.AttemptSteps)
	d.DelaySteps = subSat(o.DelaySteps, prev.DelaySteps)
	d.HelpNanos = subSat(o.HelpNanos, prev.HelpNanos)
	d.StallAlerts = subSat(o.StallAlerts, prev.StallAlerts)
	if len(o.Locks) > 0 {
		prevByID := make(map[int]LockAttrib, len(prev.Locks))
		for _, p := range prev.Locks {
			prevByID[p.LockID] = p
		}
		d.Locks = make([]LockAttrib, len(o.Locks))
		for i, l := range o.Locks {
			p := prevByID[l.LockID]
			d.Locks[i] = LockAttrib{
				LockID:     l.LockID,
				Helps:      subSat(l.Helps, p.Helps),
				HelpNanos:  subSat(l.HelpNanos, p.HelpNanos),
				DelaySteps: subSat(l.DelaySteps, p.DelaySteps),
				Alerts:     subSat(l.Alerts, p.Alerts),
			}
		}
	}
	return d
}

// decodeEvents converts raw flight-recorder entries to their public
// form; nil in, nil out.
func decodeEvents(evs []obs.Event) []TraceEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]TraceEvent, len(evs))
	for i, ev := range evs {
		out[i] = TraceEvent{
			Seq:    ev.Seq,
			Kind:   ev.Kind.String(),
			Pid:    ev.Pid,
			LockID: ev.LockID,
			Value:  ev.Value,
			Time:   time.Unix(0, ev.UnixNano),
		}
	}
	return out
}

// Observe snapshots the manager's latency histograms, step accounting,
// stall attribution and (when tracing) flight-recorder window. Without
// WithMetrics it returns the zero snapshot with Enabled false.
// Snapshotting merges the per-P histogram shards, so it costs
// O(shards × buckets) — cheap, but meant for scrape intervals, not
// per-operation calls.
func (m *Manager) Observe() ObsSnapshot {
	if m.rec == nil {
		return ObsSnapshot{}
	}
	snap := ObsSnapshot{
		Enabled:      true,
		Acquire:      histStatsOf(m.rec.Acquire.Snapshot()),
		DelayIters:   histStatsOf(m.rec.Delay.Snapshot()),
		HelpRun:      histStatsOf(m.rec.Help.Snapshot()),
		AttemptSteps: m.rec.AttemptSteps(),
		DelaySteps:   m.rec.DelaySteps(),
		HelpNanos:    m.rec.HelpNanos(),
		StallAlerts:  m.rec.StallAlerts(),
		Events:       decodeEvents(m.rec.Events()),
		Alerts:       decodeEvents(m.rec.Alerts()),
	}
	if rows := m.rec.Attrib(); len(rows) > 0 {
		snap.Locks = make([]LockAttrib, len(rows))
		for i, a := range rows {
			snap.Locks[i] = LockAttrib{
				LockID:     a.LockID,
				Helps:      a.Helps,
				HelpNanos:  a.HelpNanos,
				DelaySteps: a.DelaySteps,
				Alerts:     a.Alerts,
			}
		}
	}
	return snap
}

// Tracing reports whether the manager's flight recorder is attached
// (WithTracing).
func (m *Manager) Tracing() bool { return m.rec != nil && m.rec.Tracing() }
