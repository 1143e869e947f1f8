package wflocks

// LockStats are one lock's observability counters.
type LockStats struct {
	// ID is the lock's process-wide identifier (Lock.ID).
	ID int
	// Attempts counts acquisitions whose lock set included this lock.
	Attempts uint64
	// Wins counts the attempts among those that won.
	Wins uint64
	// Helps counts descriptors on this lock that some other attempt's
	// helping phase ran to a decision — the wait-freedom machinery at
	// work.
	Helps uint64
}

// StatsSnapshot is a point-in-time view of a manager's counters.
// Counters are read without stopping the world, so a snapshot taken
// under live traffic can be momentarily skewed (e.g. an attempt counted
// on one lock but not yet manager-wide); taken at quiescence it is
// exact. Note that an attempt holding k locks contributes to k per-lock
// Attempts counters but to the manager-wide Attempts only once.
type StatsSnapshot struct {
	// Attempts and Wins count acquisitions manager-wide, each attempt
	// once regardless of its lock set size.
	Attempts uint64
	Wins     uint64
	// Helps is the sum of the per-lock help counters.
	Helps uint64
	// FastPath counts the attempts that took the uncontended fast
	// path: every requested lock was observed free, so the attempt
	// skipped its delay stalls entirely (see WithFastPath).
	FastPath uint64
	// Locks holds one entry per lock, in creation order.
	Locks []LockStats
}

// SuccessRate is Wins/Attempts, or 0 before any attempt.
func (s StatsSnapshot) SuccessRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.Wins) / float64(s.Attempts)
}

// HelpRate is Helps/Attempts — how many descriptors the average attempt
// ran to a decision on behalf of others — or 0 before any attempt. It
// can exceed 1 under heavy stalling: that is the helping machinery
// carrying the load, not an error.
func (s StatsSnapshot) HelpRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.Helps) / float64(s.Attempts)
}

// FastPathRate is FastPath/Attempts — the fraction of attempts that
// observed every requested lock free and skipped the delay schedule —
// or 0 before any attempt.
func (s StatsSnapshot) FastPathRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.FastPath) / float64(s.Attempts)
}

// Sub returns the delta s − prev: each counter minus prev's, saturating
// at zero so a snapshot pair skewed by in-flight attempts never yields
// a wrapped counter. Per-lock entries are matched by lock ID; locks
// created after prev keep their absolute counts. Benchmarks use it to
// report per-phase rates from before/after snapshots.
func (s StatsSnapshot) Sub(prev StatsSnapshot) StatsSnapshot {
	d := StatsSnapshot{
		Attempts: subSat(s.Attempts, prev.Attempts),
		Wins:     subSat(s.Wins, prev.Wins),
		Helps:    subSat(s.Helps, prev.Helps),
		FastPath: subSat(s.FastPath, prev.FastPath),
	}
	base := make(map[int]LockStats, len(prev.Locks))
	for _, l := range prev.Locks {
		base[l.ID] = l
	}
	d.Locks = make([]LockStats, len(s.Locks))
	for i, l := range s.Locks {
		b := base[l.ID]
		d.Locks[i] = LockStats{
			ID:       l.ID,
			Attempts: subSat(l.Attempts, b.Attempts),
			Wins:     subSat(l.Wins, b.Wins),
			Helps:    subSat(l.Helps, b.Helps),
		}
	}
	return d
}

// subSat is a − b saturating at zero, so mutually skewed live
// snapshots degrade to 0 instead of wrapping. StatsSnapshot.Sub and
// ObsSnapshot.Sub both use it.
func subSat(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Stats snapshots the manager's attempt, win and help counters,
// manager-wide and per lock.
func (m *Manager) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		Attempts: m.sys.Attempts(),
		Wins:     m.sys.Wins(),
		FastPath: m.sys.FastPathAttempts(),
	}
	m.mu.Lock()
	locks := m.locks
	m.mu.Unlock()
	snap.Locks = make([]LockStats, len(locks))
	for i, l := range locks {
		a, w, h := l.inner.Counters()
		snap.Locks[i] = LockStats{ID: l.ID(), Attempts: a, Wins: w, Helps: h}
		snap.Helps += h
	}
	return snap
}
