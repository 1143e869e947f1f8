package wflocks

import (
	"context"
	"fmt"
	"iter"
	"runtime"

	"wflocks/internal/env"
	"wflocks/internal/stats"
	"wflocks/internal/table"
)

// Map is a generic lock-sharded concurrent hash map built on the
// manager's wait-free locks and the shared shard-table engine
// (internal/table). Keys are hashed to one of a power-of-two number of
// shards; each shard owns one Lock guarding an open-addressed region
// of typed cells, so operations on different shards never contend.
// Get, Put, Delete, Update and the multi-key Atomic transactions run
// as critical sections under Manager.Do and therefore inherit the
// locks' guarantees: a stalled writer can never block the map —
// competitors help its critical section complete — and every operation
// finishes within the O(κ²L²T) step bound.
//
// The map has fixed capacity (shards × per-shard capacity, both rounded
// up to powers of two): Put returns ErrMapFull when a key's shard has
// no free bucket. There is no rehashing — growing a region would make
// the worst-case critical section unbounded, voiding the T bound — so
// size the map for the workload with WithShards and WithShardCapacity.
//
// Len and the iterators (All, Keys, Values) read outside critical
// sections. Iteration takes a per-shard snapshot using a seqlock-style
// version cell that every mutation bumps (odd while a mutation's
// effects are being applied, even at rest): a shard scan is retried
// until the version is stable, so each shard is observed at one
// consistent instant. Construct with NewMap (integer keys and values)
// or NewMapOf (explicit codecs).
type Map[K comparable, V any] struct {
	m   *Manager
	eng *table.Table[K, V]
	vc  Codec[V] // result-cell codec

	// scalarV is vc when the value codec is single-word, enabling the
	// allocation-free Get frame (the found value rides the frame's
	// atomic result word); nil for multi-word values, which fall back
	// to result cells.
	scalarV ScalarCodec[V]

	// locks[s] guards eng.Shards[s]; the engine owns everything the
	// lock protects, the map owns the locking and the semantics.
	locks []*Lock

	opBudget  int // maxOps of a single-shard critical section
	probeCost int // worst-case probe alone (txn re-probe budgeting)
}

// Default map shape: 8 shards × 64 buckets.
const (
	defaultMapShards   = 8
	defaultMapCapacity = 64
)

// MapOption configures a Map at construction.
type MapOption func(*mapConfig) error

type mapConfig struct {
	shards   int
	capacity int
}

// WithShards sets the number of shards, rounded up to a power of two
// (default 8). More shards mean fewer key collisions on any one lock —
// per-lock contention drops toward P/shards — and smaller bucket
// regions, which shortens the worst-case critical section T and with it
// every attempt's fixed delays.
func WithShards(n int) MapOption {
	return func(c *mapConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithShards: shard count must be positive, got %d", n)
		}
		c.shards = table.CeilPow2(n)
		return nil
	}
}

// WithShardCapacity sets the number of buckets per shard, rounded up to
// a power of two (default 64). Capacity bounds the worst-case probe
// length and hence the critical-section budget: see MapCriticalSteps.
func WithShardCapacity(n int) MapOption {
	return func(c *mapConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithShardCapacity: capacity must be positive, got %d", n)
		}
		c.capacity = table.CeilPow2(n)
		return nil
	}
}

// MapCriticalSteps returns the WithMaxCriticalSteps bound T a Manager
// needs to host a Map with the given per-shard capacity (rounded up to
// a power of two, as WithShardCapacity rounds) and key/value codec
// widths in words. It covers the worst case of any single-shard
// operation: a full-region probe (capacity × (1 + keyWords) ops) plus
// the insert writes, the size and seqlock-version updates, and the
// result-cell writes. It is the shared engine formula (table.Budget)
// with two value accesses and 10 bookkeeping words. Multi-key
// transactions need one such budget per named key — see MapAtomicSteps
// — and NewMapOf itself only requires the 1× bound.
func MapCriticalSteps(shardCapacity, keyWords, valueWords int) int {
	return table.Budget(shardCapacity, keyWords, valueWords, 2, 10)
}

// MapAtomicSteps returns the WithMaxCriticalSteps bound T a Manager
// needs so that Map.Atomic can run a transaction over numKeys keys on
// a map with the given per-shard capacity and codec widths. Each named
// key budgets one full single-shard operation (MapCriticalSteps); keys
// that share a shard can additionally force one re-probe each when the
// transaction inserts into that shard, so the worst case (all keys on
// one shard) adds numKeys-1 probe terms. Swap is a 2-key transaction;
// MapAtomicSteps(cap, kw, vw, 2) is its requirement.
func MapAtomicSteps(shardCapacity, keyWords, valueWords, numKeys int) int {
	if numKeys < 1 {
		numKeys = 1
	}
	return numKeys*MapCriticalSteps(shardCapacity, keyWords, valueWords) +
		(numKeys-1)*table.ProbeSteps(shardCapacity, keyWords)
}

// NewMap creates a map with integer keys and values, the common case,
// using the built-in single-word codecs. See NewMapOf for arbitrary
// types.
func NewMap[K Integer, V Integer](m *Manager, opts ...MapOption) (*Map[K, V], error) {
	return NewMapOf[K, V](m, IntegerCodec[K](), IntegerCodec[V](), opts...)
}

// NewMapOf creates a map whose keys and values are encoded by the given
// codecs (use CodecFunc for multi-word struct keys or values). The
// manager's WithMaxCriticalSteps bound must cover a worst-case
// single-shard operation — MapCriticalSteps computes the requirement —
// or NewMapOf reports it as an error.
func NewMapOf[K comparable, V any](m *Manager, kc Codec[K], vc Codec[V], opts ...MapOption) (*Map[K, V], error) {
	cfg := mapConfig{shards: defaultMapShards, capacity: defaultMapCapacity}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	opBudget := MapCriticalSteps(cfg.capacity, kc.Words(), vc.Words())
	if opBudget > m.cfg.maxCritical {
		return nil, fmt.Errorf(
			"wflocks: NewMapOf: shard capacity %d with %d-word keys and %d-word values needs "+
				"WithMaxCriticalSteps(%d), manager has %d (see MapCriticalSteps)",
			cfg.capacity, kc.Words(), vc.Words(), opBudget, m.cfg.maxCritical)
	}
	mp := &Map[K, V]{
		m:         m,
		eng:       table.New[K, V](kc, vc, cfg.shards, cfg.capacity, env.Mix(m.cfg.seed, 0x77666d6170)), // "wfmap"
		vc:        vc,
		opBudget:  opBudget,
		probeCost: table.ProbeSteps(cfg.capacity, kc.Words()),
	}
	mp.scalarV, _ = vc.(ScalarCodec[V])
	mp.locks = make([]*Lock, mp.eng.ShardCount())
	for s := range mp.locks {
		mp.locks[s] = m.NewLock()
	}
	return mp, nil
}

// Shards reports the shard count (after power-of-two rounding).
func (mp *Map[K, V]) Shards() int { return mp.eng.ShardCount() }

// ShardCapacity reports the bucket count per shard (after rounding).
func (mp *Map[K, V]) ShardCapacity() int { return mp.eng.Capacity() }

// do runs a single-shard critical section on shard si's lock under the
// caller's pooled handle (one Acquire covers the lock retries and the
// result-cell reads that follow).
func (mp *Map[K, V]) do(p *Process, si int, body func(*Tx)) {
	mp.m.mustLock(p, "Map", mp.locks[si:si+1], mp.opBudget, body)
}

// Get reports the value stored for k.
//
// It first attempts a lock-free seqlock-stable probe — the same
// consistent-snapshot mechanism Len and the iterators use, here bounded
// to a few tries — which makes an uncontended or read-mostly Get a
// plain memory scan with no lock attempt at all. When writers keep the
// shard's version moving, Get falls back to a critical section on k's
// shard lock, which is wait-free, so the fallback bounds the total
// work. For single-word value codecs the locked path is also
// allocation-free: the operation runs as a pre-built frame (see
// mapFrame) and the found value rides the frame's atomic result word.
// Multi-word values route the locked result through fresh cells
// instead.
func (mp *Map[K, V]) Get(k K) (V, bool) {
	h := mp.eng.Hash(k)
	si, home := mp.eng.ShardIndex(h), mp.eng.Home(h)
	sh := &mp.eng.Shards[si]
	var zero V
	p := mp.m.Acquire()
	defer mp.m.Release(p)
	if v, ok, done := mp.eng.FindStable(p.env, sh, h, home, k, 4); done {
		return v, ok
	}
	if mp.scalarV != nil {
		f := mp.frame(p, mopGet, sh, h, home, k)
		mp.m.retryLoop(context.Background(), p, mp.locks[si:si+1], mp.opBudget, f)
		if f.resBits.Load()&mresFound == 0 {
			return zero, false
		}
		return mp.scalarV.DecodeWord(f.resWord.Load()), true
	}
	val := newResultCell(mp.vc)
	found := NewBoolCell(false)
	mp.do(p, si, func(tx *Tx) {
		i, ok, _ := mp.eng.Find(tx.run, sh, h, home, k)
		if !ok {
			return
		}
		Put(tx, val, mp.eng.Val(tx.run, sh, i))
		Put(tx, found, true)
	})
	if !found.Get(p) {
		return zero, false
	}
	return val.Get(p), true
}

// Put stores v for k, inserting or overwriting. It returns ErrMapFull
// when k's shard has no free bucket (the map never rehashes; see the
// type comment).
func (mp *Map[K, V]) Put(k K, v V) error {
	h := mp.eng.Hash(k)
	si, home := mp.eng.ShardIndex(h), mp.eng.Home(h)
	sh := &mp.eng.Shards[si]
	p := mp.m.Acquire()
	defer mp.m.Release(p)
	f := mp.frame(p, mopPut, sh, h, home, k)
	f.v = v
	mp.m.retryLoop(context.Background(), p, mp.locks[si:si+1], mp.opBudget, f)
	if f.resBits.Load()&mresFull != 0 {
		return fmt.Errorf("%w: shard %d at capacity %d", ErrMapFull, si, mp.eng.Capacity())
	}
	return nil
}

// Delete removes k, reporting whether it was present. The bucket
// becomes a tombstone so longer probe chains stay reachable; Put reuses
// tombstones.
func (mp *Map[K, V]) Delete(k K) bool {
	h := mp.eng.Hash(k)
	si, home := mp.eng.ShardIndex(h), mp.eng.Home(h)
	sh := &mp.eng.Shards[si]
	p := mp.m.Acquire()
	defer mp.m.Release(p)
	f := mp.frame(p, mopDelete, sh, h, home, k)
	mp.m.retryLoop(context.Background(), p, mp.locks[si:si+1], mp.opBudget, f)
	return f.resBits.Load()&mresFound != 0
}

// Update atomically reads k's value, applies fn, and writes the result
// back, all in one critical section — the read-modify-write that a
// Get-then-Put pair cannot do race-free. fn receives the current value
// and whether k was present; it returns the new value and keep: keep
// true stores the value (inserting or overwriting), keep false deletes
// k if present and otherwise changes nothing. An insert into a full
// shard returns ErrMapFull, as Put does.
//
// fn runs inside the critical section, so it is bound by the same
// contract as the section body: it must be deterministic (given its
// arguments), perform no cell operations or acquisitions of its own,
// and be safe for concurrent calls — a stalled attempt's body, fn
// included, may be re-executed by helpers in parallel. Keep fn to pure
// local computation; anything slow or effectful belongs outside the
// lock (see Cache.GetOrCompute for that shape). For read-modify-writes
// spanning several keys, see Atomic.
func (mp *Map[K, V]) Update(k K, fn func(old V, ok bool) (V, bool)) error {
	h := mp.eng.Hash(k)
	si, home := mp.eng.ShardIndex(h), mp.eng.Home(h)
	sh := &mp.eng.Shards[si]
	p := mp.m.Acquire()
	defer mp.m.Release(p)
	f := mp.frame(p, mopUpdate, sh, h, home, k)
	f.fn = fn
	mp.m.retryLoop(context.Background(), p, mp.locks[si:si+1], mp.opBudget, f)
	if f.resBits.Load()&mresFull != 0 {
		return fmt.Errorf("%w: shard %d at capacity %d", ErrMapFull, si, mp.eng.Capacity())
	}
	return nil
}

// Len reports the number of entries. It is the lock-free fast path: it
// sums the per-shard size cells without taking any shard lock, so it
// never contends with writers and costs O(shards) regardless of
// occupancy. Under live traffic the sum can be momentarily skewed the
// same way StatsSnapshot is (each shard's count is read at a different
// instant); at quiescence it is exact.
func (mp *Map[K, V]) Len() int {
	p := mp.m.Acquire()
	defer mp.m.Release(p)
	n := 0
	for s := range mp.eng.Shards {
		n += int(mp.eng.LoadSize(p.env, &mp.eng.Shards[s]))
	}
	return n
}

// Swap atomically exchanges the values of k1 and k2 and reports whether
// it did; if either key is absent nothing changes. It is a thin wrapper
// over a two-key Atomic transaction — the original multi-lock
// operation, kept for convenience: when the keys land on different
// shards the critical section holds both shard locks, which is where
// the paper's lock-set bound L shows up. The manager must be configured
// with WithMaxLocks(2) or more and a WithMaxCriticalSteps bound
// covering MapAtomicSteps(capacity, kw, vw, 2); ErrTooManyLocks or
// ErrMaxOpsExceeded is reported otherwise.
func (mp *Map[K, V]) Swap(k1, k2 K) (bool, error) {
	swapped := NewBoolCell(false)
	err := mp.Atomic([]K{k1, k2}, func(t *MapTxn[K, V]) {
		v1, ok1 := t.Get(k1)
		v2, ok2 := t.Get(k2)
		if ok1 && ok2 {
			t.Put(k1, v2)
			t.Put(k2, v1)
			Put(t.Tx(), swapped, true)
		}
	})
	if err != nil {
		return false, err
	}
	p := mp.m.Acquire()
	defer mp.m.Release(p)
	return swapped.Get(p), nil
}

// All returns an iterator over the map's entries, for use with
// range-over-func:
//
//	for k, v := range mp.All() { ... }
//
// Each shard is captured as a consistent snapshot — buckets are read
// lock-free and the read is retried until the shard's seqlock version
// is stable — and the loop body runs outside any critical section, so
// it may call back into the map (including mutations). Entries from
// different shards can reflect different instants; mutations concurrent
// with iteration may or may not be observed.
func (mp *Map[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		type entry struct {
			k K
			v V
		}
		var snap []entry
		p := mp.m.Acquire()
		for s := range mp.eng.Shards {
			sh := &mp.eng.Shards[s]
			mp.eng.ReadStable(p.env, sh, runtime.Gosched, func() {
				snap = snap[:0]
				for i := 0; i < mp.eng.Capacity(); i++ {
					if mp.eng.LoadMeta(p.env, sh, i)&table.StateMask == table.Full {
						snap = append(snap, entry{mp.eng.LoadKey(p.env, sh, i), mp.eng.LoadVal(p.env, sh, i)})
					}
				}
			})
			// Release the pooled handle while user code runs: the body may
			// call back into the map (or block) without holding it hostage.
			mp.m.Release(p)
			for _, e := range snap {
				if !yield(e.k, e.v) {
					return
				}
			}
			p = mp.m.Acquire()
		}
		mp.m.Release(p)
	}
}

// Keys returns an iterator over the map's keys, with All's snapshot
// semantics.
func (mp *Map[K, V]) Keys() iter.Seq[K] {
	return func(yield func(K) bool) {
		for k := range mp.All() {
			if !yield(k) {
				return
			}
		}
	}
}

// Values returns an iterator over the map's values, with All's snapshot
// semantics.
func (mp *Map[K, V]) Values() iter.Seq[V] {
	return func(yield func(V) bool) {
		for _, v := range mp.All() {
			if !yield(v) {
				return
			}
		}
	}
}

// MapShardStats is one shard's view in MapStats.
type MapShardStats struct {
	// Lock carries the shard lock's contention counters (these same
	// counters appear in the manager-wide StatsSnapshot.Locks).
	Lock LockStats
	// Size is the shard's entry count.
	Size int
	// Tombstones, MaxProbe and SumProbe describe the shard's
	// open-addressed region: buckets left by deletions, and the worst and
	// summed displacement of live entries from their home bucket
	// (SumProbe/Size is the mean extra probe length per present key).
	Tombstones int
	MaxProbe   int
	SumProbe   int
}

// MapStats is a point-in-time view of a map's per-shard contention and
// occupancy, with the same weak-consistency caveat as StatsSnapshot.
type MapStats struct {
	// Shards holds one entry per shard, in shard order.
	Shards []MapShardStats
	// Len is the summed entry count.
	Len int
	// Balance is Jain's fairness index over per-shard attempt counts:
	// 1.0 when traffic spreads evenly across shards, approaching
	// 1/shards under maximal skew (one hot shard).
	Balance float64
	// MaxOverMean is the hottest shard's attempts over the mean — the
	// headline "how skewed is my keyspace" number.
	MaxOverMean float64
	// MaxProbe is the worst probe displacement across all shards.
	MaxProbe int
}

// ShardLockID reports the ID of the shard lock covering key k — the
// LockID that k's operations carry in Stats().Shards, ObsSnapshot.Locks
// and the flight recorder's events. It is a pure hash computation
// (no lock is taken), so callers can correlate request-level traces
// with lock-level events without perturbing either.
func (mp *Map[K, V]) ShardLockID(k K) int {
	return mp.locks[mp.eng.ShardIndex(mp.eng.Hash(k))].ID()
}

// Stats snapshots per-shard contention counters and sizes.
func (mp *Map[K, V]) Stats() MapStats {
	p := mp.m.Acquire()
	defer mp.m.Release(p)
	ms := MapStats{Shards: make([]MapShardStats, mp.eng.ShardCount())}
	attempts := make([]uint64, mp.eng.ShardCount())
	for s := range mp.eng.Shards {
		a, w, h := mp.locks[s].inner.Counters()
		size := int(mp.eng.LoadSize(p.env, &mp.eng.Shards[s]))
		ps := mp.eng.ProbeStats(p.env, &mp.eng.Shards[s])
		ms.Shards[s] = MapShardStats{
			Lock:       LockStats{ID: mp.locks[s].ID(), Attempts: a, Wins: w, Helps: h},
			Size:       size,
			Tombstones: ps.Tombstones,
			MaxProbe:   ps.MaxProbe,
			SumProbe:   ps.SumProbe,
		}
		ms.Len += size
		attempts[s] = a
		if ps.MaxProbe > ms.MaxProbe {
			ms.MaxProbe = ps.MaxProbe
		}
	}
	d := stats.NewShardDist(attempts)
	ms.Balance = d.Jain
	ms.MaxOverMean = d.MaxOverMean
	return ms
}
