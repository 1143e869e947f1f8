package wflocks

import (
	"context"
	"fmt"
	"sync/atomic"

	"wflocks/internal/idem"
	"wflocks/internal/stats"
	"wflocks/internal/table"
)

// WorkPool is a sharded relaxed-FIFO work-distribution queue: a
// power-of-two number of bounded sub-rings (each a qring guarded by
// its own wait-free lock), with round-robin submission and
// two-lock work stealing. Producers spread across shards, so submit
// throughput scales with the shard count the way Map and Cache
// operations do — per-lock contention drops toward κ/shards and every
// critical section stays O(batch). Consumers start at their
// round-robin "home" shard and choose any other shard from lock-free
// occupancy reads: the fullest one, whose lone element is popped under
// that shard's lock alone, or whose backlog is *stolen*: one critical
// section over two shard locks (the paper's multi-lock acquisition at
// L=2) pops an element for the caller and migrates a small batch from
// the victim to the home shard, rebalancing the pool as a side effect.
// Blocking consumers lock only where there is work, so an idle
// Dequeue costs no lock attempts.
//
// The ordering guarantee is deliberately weaker than Queue's, and that
// is the price of the scaling: elements are FIFO *within a shard*, but
// there is no global FIFO order — round-robin interleaves producers
// across shards, and a stolen batch jumps behind the home shard's
// existing elements. Use WorkPool when elements are independent work
// items (the common pool case) and Queue when cross-element order
// matters. A Queue is exactly a one-shard WorkPool.
//
// Construct with NewWorkPool (integer elements) or NewWorkPoolOf
// (explicit codec). A pool with more than one shard needs a manager
// configured with WithMaxLocks(2) or more for the steal path. All
// methods are safe for concurrent use.
type WorkPool[T any] struct {
	m *Manager

	// scalarV is the element codec when it is single-word: a dequeued
	// element then rides its frame's atomic result word. Nil for
	// multi-word elements, which route it through a result cell.
	scalarV ScalarCodec[T]

	rings  []qring[T]
	locks  []*Lock
	steals []*Cell[uint64] // per shard: elements gained by stealing

	shardMask uint64
	batch     int

	opBudget    int // single-item critical section
	batchBudget int // batch critical section
	stealBudget int // two-lock steal critical section

	// rr and dq are the round-robin cursors for submission and
	// consumption. They are plain atomics, not cells: they only spread
	// traffic, so they need no critical-section atomicity.
	rr atomic.Uint64
	dq atomic.Uint64
}

// stealBatch is the number of elements a steal migrates from the
// victim to the home shard, in addition to the one it returns to the
// caller. It is a constant so the steal critical section's budget is
// fixed at construction.
const stealBatch = 4

// Default pool shape: 8 shards, 1024 slots total, batches of 8.
const (
	defaultPoolShards   = 8
	defaultPoolCapacity = 1024
	defaultPoolBatch    = 8
)

// WorkPoolOption configures a WorkPool at construction.
type WorkPoolOption func(*poolConfig) error

type poolConfig struct {
	shards   int
	capacity int
	batch    int
}

// WithPoolShards sets the number of sub-rings, rounded up to a power of
// two (default 8). More shards mean fewer producers colliding on any
// one lock; the cost is weaker ordering (FIFO is per shard) and, under
// uneven drain, more steals.
func WithPoolShards(n int) WorkPoolOption {
	return func(c *poolConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithPoolShards: shard count must be positive, got %d", n)
		}
		c.shards = table.CeilPow2(n)
		return nil
	}
}

// WithPoolCapacity sets the pool's total slot count (default 1024). It
// is split evenly across shards and each shard's share is rounded up
// to a power of two, so the effective capacity — reported by Cap — may
// exceed the request.
func WithPoolCapacity(n int) WorkPoolOption {
	return func(c *poolConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithPoolCapacity: capacity must be positive, got %d", n)
		}
		c.capacity = n
		return nil
	}
}

// WithPoolBatch sets the largest number of elements one EnqueueBatch or
// DequeueBatch critical section moves (default 8), with the same
// budget trade-off as WithQueueBatch.
func WithPoolBatch(n int) WorkPoolOption {
	return func(c *poolConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithPoolBatch: batch must be positive, got %d", n)
		}
		c.batch = n
		return nil
	}
}

// WorkPoolCriticalSteps returns the WithMaxCriticalSteps bound T a
// Manager needs to host a multi-shard WorkPool with the given element
// width and batch size (WithPoolBatch). The pool's worst critical
// section is
// either a batch (batch element moves, as in QueueCriticalSteps) or a
// steal — one dequeue for the caller plus stealBatch ring-to-ring
// migrations, each a dequeue/enqueue pair — whichever budgets larger.
func WorkPoolCriticalSteps(valueWords, batch int) int {
	stealItems := 1 + 2*stealBatch
	if batch < stealItems {
		batch = stealItems
	}
	return QueueCriticalSteps(valueWords, batch)
}

// NewWorkPool creates a pool of integer elements, the common case,
// using the built-in single-word codec. See NewWorkPoolOf for
// arbitrary types.
func NewWorkPool[T Integer](m *Manager, opts ...WorkPoolOption) (*WorkPool[T], error) {
	return NewWorkPoolOf[T](m, IntegerCodec[T](), opts...)
}

// NewWorkPoolOf creates a pool whose elements are encoded by the given
// codec. The manager's WithMaxCriticalSteps bound must cover the
// pool's worst critical section — WorkPoolCriticalSteps computes the
// requirement, or QueueCriticalSteps for a one-shard pool — and, for a
// pool of more than one shard, WithMaxLocks must be at least 2 (the
// steal path acquires two shard locks in one attempt); either
// shortfall is reported as an error.
func NewWorkPoolOf[T any](m *Manager, vc Codec[T], opts ...WorkPoolOption) (*WorkPool[T], error) {
	cfg := poolConfig{shards: defaultPoolShards, capacity: defaultPoolCapacity, batch: defaultPoolBatch}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	return newWorkPool(m, vc, cfg, "NewWorkPoolOf")
}

// newWorkPool validates cfg against the manager's bounds and builds
// the pool; who names the public constructor in errors.
func newWorkPool[T any](m *Manager, vc Codec[T], cfg poolConfig, who string) (*WorkPool[T], error) {
	if cfg.shards > 1 && m.cfg.maxLocks < 2 {
		return nil, fmt.Errorf(
			"wflocks: %s: %d shards need the two-lock steal path; configure the manager with WithMaxLocks(2) or use one shard",
			who, cfg.shards)
	}
	budget, budgetFn := WorkPoolCriticalSteps(vc.Words(), cfg.batch), "WorkPoolCriticalSteps"
	if cfg.shards == 1 {
		budget, budgetFn = QueueCriticalSteps(vc.Words(), cfg.batch), "QueueCriticalSteps"
	}
	if budget > m.cfg.maxCritical {
		return nil, fmt.Errorf(
			"wflocks: %s: batch %d with %d-word elements needs WithMaxCriticalSteps(%d), "+
				"manager has %d (see %s)",
			who, cfg.batch, vc.Words(), budget, m.cfg.maxCritical, budgetFn)
	}
	perShard := table.CeilPow2((cfg.capacity + cfg.shards - 1) / cfg.shards)
	wp := &WorkPool[T]{
		m:           m,
		rings:       make([]qring[T], cfg.shards),
		locks:       make([]*Lock, cfg.shards),
		steals:      make([]*Cell[uint64], cfg.shards),
		shardMask:   uint64(cfg.shards - 1),
		batch:       cfg.batch,
		opBudget:    QueueCriticalSteps(vc.Words(), 1),
		batchBudget: QueueCriticalSteps(vc.Words(), cfg.batch),
		stealBudget: QueueCriticalSteps(vc.Words(), 1+2*stealBatch),
	}
	wp.scalarV, _ = vc.(ScalarCodec[T])
	for s := range wp.rings {
		wp.rings[s] = newQring(vc, perShard)
		wp.locks[s] = m.NewLock()
		wp.steals[s] = NewCell(uint64(0))
	}
	return wp, nil
}

// Shards reports the shard count (after power-of-two rounding).
func (wp *WorkPool[T]) Shards() int { return len(wp.rings) }

// Cap reports the total slot count after per-shard rounding; it is at
// least the WithPoolCapacity request.
func (wp *WorkPool[T]) Cap() int { return len(wp.rings) * wp.rings[0].capacity }

// do runs a batch critical section on shard si's lock.
func (wp *WorkPool[T]) do(p *Process, si, maxOps int, body func(*Tx)) {
	wp.m.mustLock(p, "WorkPool", wp.locks[si:si+1], maxOps, body)
}

// Pool frame operation kinds (see mapframe.go for the frame pattern:
// arena-fresh per call, parameters as plain fields, results through
// atomic fields every run derives identically).
const (
	wpEnqueue uint8 = iota + 1
	wpDequeue
	wpSteal
)

// poolFrame is a single-item pool critical section in frame form: an
// enqueue to or dequeue from shard s, or a steal from victim s into
// shard home.
type poolFrame[T any] struct {
	wp   *WorkPool[T]
	s    int
	home int
	op   uint8
	v    T
	out  *Cell[T] // dequeued element, multi-word codecs only

	// resWord holds a dequeued element's scalar encoding; resN is 1
	// for a completed enqueue or dequeue and the elements gained for a
	// steal, 0 when the section observed a full or empty ring.
	resWord atomic.Uint64
	resN    atomic.Uint64
}

// RunThunk implements idem.Thunk.
func (f *poolFrame[T]) RunThunk(r *idem.Run) {
	tx := newTx(r)
	ring := &f.wp.rings[f.s]
	if f.op == wpEnqueue {
		if ring.enqOne(tx, f.v) {
			f.resN.Store(1)
		} else {
			Put(tx, ring.fulls, Get(tx, ring.fulls)+1)
		}
		return
	}
	v, ok := ring.deqOne(tx)
	if !ok {
		Put(tx, ring.empties, Get(tx, ring.empties)+1)
		return
	}
	if sc := f.wp.scalarV; sc != nil {
		f.resWord.Store(sc.EncodeWord(v))
	} else {
		Put(tx, f.out, v)
	}
	n := uint64(1)
	if f.op == wpSteal {
		home := &f.wp.rings[f.home]
		for j := 0; j < stealBatch && moveOne(tx, ring, home); j++ {
			n++
		}
		Put(tx, f.wp.steals[f.home], Get(tx, f.wp.steals[f.home])+n)
	}
	f.resN.Store(n)
}

// run executes the frame's section on shard s's lock (a pop or an
// enqueue) or on the home/victim pair in canonical lock-ID order (a
// steal), reporting the frame's resN. Construction validated both
// budgets against the manager's bounds.
func (f *poolFrame[T]) run(p *Process) uint64 {
	wp := f.wp
	locks, budget := wp.locks[f.s:f.s+1], wp.opBudget
	if f.op == wpSteal {
		locks = []*Lock{wp.locks[f.home], wp.locks[f.s]}
		if locks[1].ID() < locks[0].ID() {
			locks[0], locks[1] = locks[1], locks[0]
		}
		budget = wp.stealBudget
	}
	wp.m.retryLoop(context.Background(), p, locks, budget, f)
	return f.resN.Load()
}

// frame draws a fresh operation frame for one single-item section on
// shard s.
func (wp *WorkPool[T]) frame(p *Process, op uint8, s int) *poolFrame[T] {
	f := structFrame[poolFrame[T]](p)
	f.wp, f.op, f.s = wp, op, s
	return f
}

// TryEnqueue submits v to the next shard in round-robin order, probing
// each shard at most once; it reports false only when every shard is
// full.
func (wp *WorkPool[T]) TryEnqueue(v T) bool {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	return wp.tryEnqueueWith(p, v)
}

func (wp *WorkPool[T]) tryEnqueueWith(p *Process, v T) bool {
	return wp.tryEnqueueFrom(p, wp.rr.Add(1)-1, v)
}

func (wp *WorkPool[T]) tryEnqueueFrom(p *Process, start uint64, v T) bool {
	for j := 0; j < len(wp.rings); j++ {
		f := wp.frame(p, wpEnqueue, int((start+uint64(j))&wp.shardMask))
		f.v = v
		if f.run(p) != 0 {
			return true
		}
	}
	return false
}

// TryDequeue pops an element, reporting false when the pool has none
// it can reach in one pass. The consumer's round-robin home shard is
// tried first, under its lock even when it reads empty: the section
// records the empty and helps a holder stalled there finish its
// enqueue, whose element the consumer then takes. Past the home shard
// the choice is lock-free: the fullest other shard by its occupancy
// read is popped under its own lock when it holds one element and
// raided on the two-lock steal path when it holds a batch to migrate
// (the returned element comes from the victim and up to stealBatch
// more move to the home shard, so subsequent dequeues hit locally). A
// false return does not guarantee the pool was empty at any single
// instant (the reads are advisory and each section re-checks under
// its locks); consumers using the blocking forms never miss work,
// because they retry.
func (wp *WorkPool[T]) TryDequeue() (T, bool) {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	return wp.dequeueWith(p, false)
}

// dequeueWith is the one single-item dequeue routine: TryDequeue's
// pass as documented there. A blocking caller (Dequeue) retries, so
// it locks its home shard only when that reads non-empty; when every
// shard reads empty it returns at once, with no lock taken and nothing
// allocated.
func (wp *WorkPool[T]) dequeueWith(p *Process, blocking bool) (T, bool) {
	home := int((wp.dq.Add(1) - 1) & wp.shardMask)
	if !blocking || wp.rings[home].lenWith(p) > 0 {
		if v, ok := wp.take(p, wpDequeue, home, home); ok || len(wp.rings) == 1 {
			return v, ok
		}
	}
	target, n := home, 0
	for s := range wp.rings {
		if k := wp.rings[s].lenWith(p); k > n {
			target, n = s, k
		}
	}
	switch {
	case n == 0:
		var zero T
		return zero, false
	case n == 1 || target == home:
		return wp.take(p, wpDequeue, target, home)
	default:
		return wp.take(p, wpSteal, target, home)
	}
}

// take runs one dequeue-side section on a fresh frame — a pop from
// shard s, or a steal from victim s into home — and returns the
// element it delivered.
func (wp *WorkPool[T]) take(p *Process, op uint8, s, home int) (T, bool) {
	f := wp.frame(p, op, s)
	f.home = home
	if wp.scalarV == nil {
		f.out = newResultCell(wp.rings[s].vc)
	}
	if f.run(p) == 0 {
		var zero T
		return zero, false
	}
	if f.out != nil {
		return f.out.Get(p), true
	}
	return wp.scalarV.DecodeWord(f.resWord.Load()), true
}

// TryEnqueueKeyed submits v with shard affinity: probing starts at the
// shard selected by key's low bits instead of the round-robin cursor,
// so elements sharing a key land on the same sub-ring (and, under even
// drain, the same consumers) whenever that shard has room. The
// fallback is the same as TryEnqueue's — the remaining shards are
// probed in order, and false means every shard was full — so affinity
// is a locality hint, never an admission constraint. Callers that need
// a stable mapping should pass a hash of the key, not the key itself:
// only the low bits select the shard.
func (wp *WorkPool[T]) TryEnqueueKeyed(key uint64, v T) bool {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	return wp.tryEnqueueFrom(p, key, v)
}

// EnqueueKeyed submits v with TryEnqueueKeyed's shard affinity, waiting
// while every shard is full under the same retry/cancellation contract
// as Enqueue.
func (wp *WorkPool[T]) EnqueueKeyed(ctx context.Context, key uint64, v T) error {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: pool full after %d passes: %w", ErrCanceled, attempt-1, err)
		}
		if wp.tryEnqueueFrom(p, key, v) {
			return nil
		}
		wp.m.retry.Wait(ctx, attempt)
	}
}

// Enqueue submits v, waiting while every shard is full: failed passes
// apply the manager's RetryPolicy and the wait ends with an error
// wrapping ErrCanceled once ctx is done. A nil return means v was
// enqueued exactly once.
func (wp *WorkPool[T]) Enqueue(ctx context.Context, v T) error {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: pool full after %d passes: %w", ErrCanceled, attempt-1, err)
		}
		if wp.tryEnqueueWith(p, v) {
			return nil
		}
		wp.m.retry.Wait(ctx, attempt)
	}
}

// Dequeue pops an element, waiting while the pool is empty under the
// same retry/cancellation contract as Enqueue. A pass that reads every
// shard empty takes no lock and allocates nothing — idle consumers
// spin on lock-free occupancy reads under the RetryPolicy — so an idle
// wait adds no lock attempts and no EmptyRejects.
func (wp *WorkPool[T]) Dequeue(ctx context.Context) (T, error) {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			var zero T
			return zero, fmt.Errorf("%w: pool empty after %d passes: %w", ErrCanceled, attempt-1, err)
		}
		if v, ok := wp.dequeueWith(p, true); ok {
			return v, nil
		}
		wp.m.retry.Wait(ctx, attempt)
	}
}

// EnqueueBatch submits vs, amortizing lock acquisitions: elements are
// moved in chunks of up to the WithPoolBatch size, each chunk one
// critical section on one round-robin shard (chunks are atomic,
// the batch as a whole is not — and, as always with the pool,
// consumers may interleave chunks from different producers). When
// every shard is full it waits under the Enqueue retry contract. It
// returns the number of elements enqueued, which is len(vs) unless ctx
// was done first.
func (wp *WorkPool[T]) EnqueueBatch(ctx context.Context, vs []T) (int, error) {
	items := append([]T(nil), vs...) // bodies must not capture caller-owned memory
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	done := 0
	attempt := 0
	for done < len(items) {
		attempt++
		if err := ctx.Err(); err != nil {
			return done, fmt.Errorf("%w: %d of %d enqueued: %w", ErrCanceled, done, len(items), err)
		}
		chunk := items[done:]
		if len(chunk) > wp.batch {
			chunk = chunk[:wp.batch]
		}
		moved := 0
		start := wp.rr.Add(1) - 1
		for j := 0; j < len(wp.rings) && moved == 0; j++ {
			si := int((start + uint64(j)) & wp.shardMask)
			ring := &wp.rings[si]
			n := NewCell(uint64(0))
			wp.do(p, si, wp.batchBudget, func(tx *Tx) {
				k := uint64(0)
				for _, v := range chunk {
					if !ring.enqOne(tx, v) {
						Put(tx, ring.fulls, Get(tx, ring.fulls)+1)
						break
					}
					k++
				}
				Put(tx, n, k)
			})
			moved = int(n.Get(p))
		}
		done += moved
		if moved == 0 {
			wp.m.retry.Wait(ctx, attempt)
		} else {
			attempt = 0
		}
	}
	return done, nil
}

// DequeueBatch pops up to max elements, waiting only until the first
// is available: shards are scanned in round-robin order and drained in
// WithPoolBatch-sized atomic chunks until max is reached or a pass
// fills no shard's chunk (every shard came up short, so it ran dry at
// that instant). A shard whose lock-free occupancy read is empty is
// skipped without its lock and counts as short, so an empty-handed
// pass over an empty pool takes no lock and allocates nothing. The
// scan visits every shard, so the batch path needs no steal. Elements within one chunk preserve their shard's FIFO
// order; chunks from different shards interleave (relaxed FIFO). It
// returns an error wrapping ErrCanceled — with whatever was dequeued —
// once ctx is done while still empty-handed.
func (wp *WorkPool[T]) DequeueBatch(ctx context.Context, max int) ([]T, error) {
	if max <= 0 {
		return nil, nil
	}
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	var got []T
	attempt := 0
	for len(got) < max {
		attempt++
		if err := ctx.Err(); err != nil {
			return got, fmt.Errorf("%w: %d of %d dequeued: %w", ErrCanceled, len(got), max, err)
		}
		filled := false // some shard's chunk came back full
		start := wp.dq.Add(1) - 1
		for j := 0; j < len(wp.rings) && len(got) < max; j++ {
			si := int((start + uint64(j)) & wp.shardMask)
			ring := &wp.rings[si]
			if ring.lenWith(p) == 0 {
				continue
			}
			want := max - len(got)
			if want > wp.batch {
				want = wp.batch
			}
			outs := make([]*Cell[T], want)
			for i := range outs {
				outs[i] = newResultCell(ring.vc)
			}
			n := NewCell(uint64(0))
			wp.do(p, si, wp.batchBudget, func(tx *Tx) {
				k := uint64(0)
				for i := 0; i < want; i++ {
					v, ok := ring.deqOne(tx)
					if !ok {
						Put(tx, ring.empties, Get(tx, ring.empties)+1)
						break
					}
					Put(tx, outs[i], v)
					k++
				}
				Put(tx, n, k)
			})
			moved := int(n.Get(p))
			for i := 0; i < moved; i++ {
				got = append(got, outs[i].Get(p))
			}
			filled = filled || moved == want
		}
		if !filled {
			if len(got) > 0 {
				return got, nil
			}
			wp.m.retry.Wait(ctx, attempt)
		} else {
			attempt = 0
		}
	}
	return got, nil
}

// Len reports the number of pooled elements: the sum of the shards'
// lock-free occupancy reads, with qring.lenWith's consistency caveat
// (each shard is read at a slightly different instant).
func (wp *WorkPool[T]) Len() int {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	n := 0
	for s := range wp.rings {
		n += wp.rings[s].lenWith(p)
	}
	return n
}

// WorkPoolShardStats is one shard's view in WorkPoolStats.
type WorkPoolShardStats struct {
	// Lock carries the shard lock's contention counters.
	Lock LockStats
	// Enqueues and Dequeues count completed operations on this shard.
	// A stolen element counts its dequeue on the victim shard; migrated
	// elements keep their original enqueue shard and count their
	// eventual dequeue wherever they are drained.
	Enqueues, Dequeues uint64
	// A single-lock pop from another shard (one element there, nothing
	// to migrate) counts as that shard's dequeue, not as a steal.
	// Steals counts elements this shard gained by raiding others (the
	// returned element plus the migrated batch).
	Steals uint64
	// FullRejects counts enqueue sections that observed this shard
	// full (round-robin probing included); EmptyRejects counts dequeue
	// sections that observed it empty under its lock (TryDequeue's
	// home-shard try and steal re-checks included; lock-free skips not
	// included).
	FullRejects, EmptyRejects uint64
	// Len is the shard's current occupancy.
	Len int
}

// WorkPoolStats is a point-in-time view of the pool's per-shard
// traffic, exact at quiescence.
type WorkPoolStats struct {
	// Shards holds one entry per shard, in shard order.
	Shards []WorkPoolShardStats
	// Enqueues, Dequeues, Steals, FullRejects and EmptyRejects are the
	// summed counters.
	Enqueues, Dequeues, Steals, FullRejects, EmptyRejects uint64
	// Len is the summed occupancy.
	Len int
	// Balance is Jain's fairness index over per-shard enqueue counts:
	// 1.0 when round-robin spread submissions evenly, approaching
	// 1/shards under maximal skew.
	Balance float64
	// MaxOverMean is the hottest shard's enqueues over the mean.
	MaxOverMean float64
}

// Stats snapshots the pool's per-shard counters and occupancy.
func (wp *WorkPool[T]) Stats() WorkPoolStats {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	ps := WorkPoolStats{Shards: make([]WorkPoolShardStats, len(wp.rings))}
	enqs := make([]uint64, len(wp.rings))
	for s := range wp.rings {
		st := wp.shardStats(p, s)
		ps.Shards[s] = st
		ps.Enqueues += st.Enqueues
		ps.Dequeues += st.Dequeues
		ps.Steals += st.Steals
		ps.FullRejects += st.FullRejects
		ps.EmptyRejects += st.EmptyRejects
		ps.Len += st.Len
		enqs[s] = st.Enqueues
	}
	d := stats.NewShardDist(enqs)
	ps.Balance = d.Jain
	ps.MaxOverMean = d.MaxOverMean
	return ps
}

// shardStats snapshots shard s's counters and occupancy under p.
func (wp *WorkPool[T]) shardStats(p *Process, s int) WorkPoolShardStats {
	ring := &wp.rings[s]
	a, w, h := wp.locks[s].inner.Counters()
	return WorkPoolShardStats{
		Lock:         LockStats{ID: wp.locks[s].ID(), Attempts: a, Wins: w, Helps: h},
		Enqueues:     ring.enqs.Get(p),
		Dequeues:     ring.deqs.Get(p),
		Steals:       wp.steals[s].Get(p),
		FullRejects:  ring.fulls.Get(p),
		EmptyRejects: ring.empties.Get(p),
		Len:          ring.lenWith(p),
	}
}
