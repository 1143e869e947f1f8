// Package wflocks provides fast and fair randomized wait-free locks —
// a Go implementation of Ben-David and Blelloch, "Fast and Fair
// Randomized Wait-Free Locks", PODC 2022 (arXiv:2108.04520) — behind an
// idiomatic API: typed generic cells, implicit per-goroutine process
// handles, and context-aware acquisition.
//
// # What it gives you
//
// An acquisition takes a set of locks and a critical section. If the
// attempt wins, the critical section has been executed (atomically
// with respect to every other critical section sharing a lock) by the
// time the call returns; if it fails, the critical section has not
// run and never will. The guarantees, with κ the maximum number of
// simultaneous attempts on any lock, L the maximum locks per attempt,
// and T the maximum critical-section length:
//
//   - Wait-freedom with a step bound: every attempt finishes within
//     O(κ²L²T) of the caller's own steps, no matter how the scheduler
//     delays anyone else. Stalled winners are helped: their critical
//     sections are executed by competitors, exactly once, thanks to an
//     idempotent-execution layer.
//   - Fairness: every attempt wins with probability at least 1/(κL),
//     even against an adversary that decides when to start attempts
//     knowing the entire history. Retrying therefore succeeds in
//     O(κL) expected attempts.
//
// # Quick start
//
//	m, err := wflocks.New(wflocks.WithUnknownBounds(8), // ≤8 goroutines attempt concurrently
//		wflocks.WithMaxLocks(2), wflocks.WithMaxCriticalSteps(64))
//	if err != nil { ... }
//	a, b := m.NewLock(), m.NewLock()
//	balanceA, balanceB := wflocks.NewCell(100), wflocks.NewCell(0)
//
//	err = m.Do([]*wflocks.Lock{a, b}, 4, func(tx *wflocks.Tx) {
//		v := wflocks.Get(tx, balanceA)
//		wflocks.Put(tx, balanceA, v-10)
//		w := wflocks.Get(tx, balanceB)
//		wflocks.Put(tx, balanceB, w+10)
//	})
//
// WithUnknownBounds(P) selects the adaptive delay variant — the
// recommended default; see "Choosing a delay variant" below for when
// the known-bounds alternative (WithKappa) is worth configuring.
//
// Do retries wait-free attempts under the manager's RetryPolicy
// (default: yield between attempts) until one wins, managing the
// per-goroutine process handle implicitly. DoCtx is the same with
// cancellation: it stops retrying and returns ErrCanceled when its
// context is done. For single-attempt semantics — "run this atomically
// if I win the locks, tell me if I didn't" — use TryLock with an
// explicit Process handle, which also carries per-process step
// accounting.
//
// # Typed cells
//
// Critical sections access shared state only through Cells and the
// typed accessors (Get, Put, CompareSwap); this is what makes them
// idempotent so that helpers can safely re-execute them. Cells are
// generic: NewCell covers any integer type in one machine word,
// NewBoolCell and NewFloat64Cell cover bool and float64, and NewCellOf
// with a CodecFunc codec stores small structs across multiple words:
//
//	type account struct{ Balance, Version uint64 }
//	codec := wflocks.CodecFunc(2,
//		func(a account, dst []uint64) { dst[0], dst[1] = a.Balance, a.Version },
//		func(src []uint64) account { return account{src[0], src[1]} })
//	acct := wflocks.NewCellOf(codec, account{Balance: 100})
//
// Each machine word costs one operation of the call's maxOps budget.
// Critical sections must be deterministic given the accessors'
// results, must not nest acquisitions, and must perform at most the
// declared number of operations. Outside critical sections, read and
// write cells with Load and Store (implicit pooled handle) or
// Cell.Get and Cell.Set (explicit handle).
//
// # Built-in data structures: the shard-table engine
//
// Map and Cache are built on one shared shard-table engine
// (internal/table): a power-of-two shard array of open-addressed
// bucket regions held in cells, with the hashing, probing, seqlock
// versioning and budget math in one place. Every structure's per-lock
// contention is the per-shard κ, not the process count, and the
// worst-case critical section T is bounded by the shard capacity —
// the budget helpers (MapCriticalSteps, CacheCriticalSteps) are two
// parameterizations of the engine's one formula.
//
// Map is a generic lock-sharded concurrent hash map (NewMap,
// NewMapOf). Get, Put, Delete and the read-modify-write Update are
// single-lock critical sections under Do. Len stays off the locks
// entirely (a lock-free sum of per-shard size cells), and iteration is
// range-over-func — All, Keys, Values return iter.Seq iterators whose
// per-shard snapshots validate the engine's seqlock versions, so they
// never block writers and never surface a torn entry. Map.Stats
// exposes per-shard contention counters (the same counters the shard
// locks contribute to StatsSnapshot.Locks) plus a Jain balance index
// over shards.
//
// Cache (NewCache, NewCacheOf) layers LRU eviction and optional TTL on
// the same shard architecture. Each shard adds an intrusive doubly-
// linked recency list held in cells — prev/next bucket indices plus
// head/tail anchors — so a Get's move-to-front and a full shard's
// tail eviction are pointer surgery executed inside the critical
// section, re-executable by helpers like any other body. Put never
// fails: at capacity it displaces the shard's LRU tail in the same
// atomic step as its insert. GetOrCompute computes outside the lock
// and installs under it with a re-probe, so concurrent misses agree
// on one value and a slow computation never stretches a critical
// section. Contains is the pure peek — one probe, no recency bump, no
// expiry reclaim, no counter traffic — and Cache.All iterates
// unexpired entries lock-free under the engine's seqlock, like
// Map.All.
//
// # Multi-key transactions
//
// Atomic is where the paper's lock-set bound L surfaces in the API: a
// transaction declares its key set up front, the involved shard locks
// are deduplicated, sorted by lock ID and acquired in one wait-free
// multi-lock attempt, and the body runs Get/Put/Delete on the named
// keys as a single critical section — commit is all-or-nothing with
// respect to every other critical section, and a stalled transaction
// is completed by helpers like any other body. Transaction bodies are
// idempotent by construction: every access flows through the
// idempotence layer, results route through fresh cells (MapTxn.Tx
// exposes the handle), and MapTxn.Keys gives bodies an immutable key
// list to iterate. Swap is now a thin two-key Atomic wrapper; GetBatch
// and PutBatch ride the same path, chunking arbitrarily large key sets
// into acquisitions of at most MaxLocks shards. AtomicAll composes
// regions (Map.Region) from several structures on one manager into one
// transaction — a checking map and a savings map can move value
// between them atomically (see examples/bank).
//
// # Queues and work distribution
//
// Queue (NewQueue, NewQueueOf) is the producer/consumer primitive: a
// bounded MPMC FIFO ring whose head/tail tickets, element slots and
// per-slot occupancy sequence numbers are all cells, so every enqueue
// and dequeue is a single-lock idempotent critical section — the
// index surgery is re-executed by helpers without double-applying,
// and a stalled producer or consumer never wedges the queue.
// TryEnqueue/TryDequeue fail fast on full/empty; Enqueue/Dequeue wait
// under the manager's RetryPolicy with context cancellation; and
// EnqueueBatch/DequeueBatch move chunks of up to WithQueueBatch
// elements per critical section, amortizing acquisitions the way the
// map's batches amortize shard locks.
//
// WorkPool (NewWorkPool, NewWorkPoolOf) is the sharded relaxed-FIFO
// layer for independent work items: round-robin submission across
// per-shard sub-rings, home-shard consumption, and — when a
// consumer's home shard is empty while another holds work — a
// two-lock steal (the multi-lock path at L=2) that returns one
// element and migrates a small batch to the home shard. Ordering is
// FIFO per shard only; that is the deliberate price of submit
// throughput that scales with the shard count and stalls confined to
// one shard. Queue is exactly the one-shard WorkPool: a thin type
// that pins the single shard, which is what gives it global FIFO
// order and a budget of QueueCriticalSteps (one shard never steals).
// Queue is for order-bearing streams, WorkPool for pipelines (see
// examples/pipeline).
//
// # Broadcast logs and fan-out
//
// Log (NewLog, NewLogOf) is the fan-out shape: producers append once,
// every attached Cursor replays the full stream independently, and
// fully-consumed segments are reclaimed by trim — pub/sub, replay,
// pipeline broadcast. It reuses the queue's cell layout (each shard
// is a ticket ring guarded by one lock; appends are single-lock
// sections, batched by WithLogBatch), and adds per-consumer read
// positions that live in typed cells themselves: every cursor write —
// a Next/NextBatch advance, attach, Close, a TrimTo clamp — is a
// two-lock {shard lock, cursor lock} critical section, the paper's
// multi-lock acquisition at L=2. That placement is the point of the
// structure. Reclamation reads the minimum cursor position under the
// shard lock, and since positions only move under that lock, a
// consumer stalled mid-advance is helped past its advance rather than
// waited on — a lagging subscriber holds retention back (the
// contract), but a stalled one can never wedge trim, appends, or
// other readers. Capacity is fixed; a full shard's append reclaims up
// to one fully-consumed segment in-section, so steady-state producers
// ride behind the slowest cursor as backpressure, and TrimTo bounds
// retention by force, advancing laggards and counting what they
// missed as drops. Entries are totally ordered within a shard only;
// AppendKeyed pins a key to one shard as a hard per-key ordering
// guarantee, not a locality hint (see examples/pubsub).
//
// # Sizing critical-section budgets
//
// The budget helpers (MapCriticalSteps, CacheCriticalSteps,
// QueueCriticalSteps, WorkPoolCriticalSteps, LogCriticalSteps) show
// how T is engineered
// as structures grow richer. Every cell word read or written inside a
// body costs one operation, so a budget is just an audit of the
// worst-case body. For the map that is a full-region probe —
// capacity × (1 + keyWords) — plus a constant for the insert and
// bookkeeping writes. The cache's LRU surgery extends the same audit:
// a move-to-front is at most 9 single-word cell ops (three pointer
// reads, six writes), an eviction at most a dozen, all constants
// independent of the region size, so CacheCriticalSteps is the same
// probe term with a larger additive constant. The queue sits at the
// other extreme: there is no probe at all, so QueueCriticalSteps has
// no capacity term — a worst-case item is ticket reads, a slot write,
// a sequence write and counter updates (2·valueWords + a small
// constant), times the batch size, plus fixed routing overhead.
// WorkPoolCriticalSteps, the multi-shard pool's bound, is the same
// formula with the batch floored at the steal section's cost (one dequeue plus stealBatch
// dequeue/enqueue migration pairs). LogCriticalSteps carries two new
// terms the log's shape forces in: the in-section reclaim scans every
// consumer slot's position for the minimum (a `consumers` term — the
// slot pool is fixed at construction precisely so that scan is
// bounded) and then clears one segment (a `segment` term), so both
// knobs price directly into T. The pattern generalizes:
// bounded-degree surgery adds O(1) per operation, and only region
// scans contribute linear terms — which is why no structure here
// rehashes or grows, and why each bounds T by construction rather
// than hoping workloads stay polite. Note the queue consequence:
// because T excludes any capacity term, a queue's WithQueueCapacity
// is free as far as the delay schedule is concerned, while its batch
// size is not — batches trade per-item acquisition overhead against a
// longer T that every attempt's delays scale with.
//
// # Errors and observability
//
// Acquisitions validate their arguments and return typed sentinel
// errors: ErrNoLocks, ErrTooManyLocks (lock set beyond L),
// ErrMaxOpsExceeded (ops budget beyond T), ErrCanceled (DoCtx, LockCtx
// or AtomicCtx context done), ErrMapFull (a Map shard out of buckets),
// ErrCrossManager (an AtomicAll region on a foreign manager) and
// ErrOverlappingRegions (two AtomicAll regions sharing a shard).
// New audits its Options the same way. Manager.Stats returns a
// StatsSnapshot with manager-wide and per-lock attempt/win/help
// counters.
//
// # Choosing L: MaxLocks, sorted acquisition, and the κ²L²T cost
//
// WithMaxLocks is a price list, not just a limit. Every attempt —
// even a single-lock one — pays fixed delays of c·κ²L²T of its own
// steps, with L and T the manager-wide bounds; and a transaction over
// L keys also grows T itself, since its budget is L single-shard
// budgets (MapAtomicSteps). The delay product therefore steepens
// roughly as L³ as a manager is configured for wider transactions.
// Acquisition order never matters for correctness — the multi-lock
// attempt is atomic, not incremental — but Atomic still sorts lock
// sets canonically (by lock ID) so identical transactions are
// identical attempts.
//
// The txn:transfer sweep (cmd/wfbench -workload txn:transfer, or
// BenchmarkTxn) quantifies the trade against a sorted-multi-mutex
// baseline, with each wfmap row's manager sized for its L and both
// delay variants swept. Raw, the blocking baseline wins throughout
// and the gap widens with L — adaptive wfmap runs ~300000 vs the
// baseline's ~4100000 txns/sec at L=1, narrowing to ~29000 vs
// ~1600000 at L=8 on one 2.1 GHz core, the delay schedule steepening
// with L exactly as the cost model predicts. In the paper's
// holder-stall regime (4ms stalls every 16 value writes), helping
// flips the low-L comparison: adaptive wfmap sustains ~7300 vs ~5900
// (L=1) and ~2400 vs ~2000 (L=2) txns/sec, because a stalled mutex
// holder serializes every transaction sharing any held shard while
// wfmap's competitors re-execute the stalled body and move on; by L=4
// the delay product overtakes the stall savings (~760 vs ~950) and at
// L=8 the baseline is ~2× ahead. The practical guidance: configure
// WithMaxLocks for the transactions you actually run (L=2–4 covers
// transfers and swaps), keep hot multi-key paths narrow, and treat
// wide transactions as a correctness tool rather than a throughput
// path.
//
// # From ops/sec to tail latency
//
// Throughput tables answer "how much work per second"; a service is
// judged by "how late was the slowest request I still had to answer".
// The wfserve server (cmd/wfserve, internal/serve) exists to measure
// the second question: RESP-subset commands over TCP, dispatched by
// key hash through a WorkPool into workers running against Map, Cache
// or a sharded-mutex baseline, with per-connection pipelining and
// graceful drain. What makes its numbers trustworthy is the load
// harness (internal/serve/loadgen, cmd/wfload), which guards against
// coordinated omission — the classic benchmarking error in which the
// load generator and the system under test cooperate to hide the
// worst results. A closed-loop client sends a request, waits for the
// reply, then sends the next; when the server stalls for 4ms, the
// client politely stops generating load, so the stall appears in the
// record as one slow request instead of the dozens of requests that
// *would* have arrived during those 4ms and queued behind it. The
// percentiles come out clean precisely because the system misbehaved.
//
// The harness is therefore open-loop: request i is due at time
// i/rate on a fixed schedule that the server cannot slow down, and
// every latency is measured from that intended send time, so a
// request that spent 4ms queued behind a stalled holder records 4ms
// plus its service time no matter when the bytes finally moved. Under
// this accounting the paper's regime comparison becomes visible in
// the right units: self-stalled requests cost the wait-free server
// and the mutex baseline the same sleep, but the requests scheduled
// *behind* a stalled mutex holder inherit its stall as queueing delay
// while a stalled wait-free winner is helped past — collateral
// queueing is exactly the quantity the O(κ²L²T) step bound controls.
// The service:* scenarios (cmd/wfbench -workload service:read) report
// both regimes honestly: raw, the wait-free backend's median now
// matches the mutex baseline (the allocation-free hot paths and the
// uncontended fast path removed the old constant-factor penalty)
// while the mutex keeps a modest edge in the raw tails; under holder
// stalls the whole distribution inverts in the wait-free backend's
// favor.
//
// # Choosing a delay variant
//
// Every manager runs one of two delay schedules, and the choice is the
// single most consequential configuration decision:
//
//   - Adaptive (WithUnknownBounds(P)) — the recommended default. The
//     paper's Section 6.2 variant needs only P, an upper bound on the
//     goroutines that attempt locks concurrently, and discovers the
//     actual contention per attempt: delays are powers of two scaled
//     by the contention each attempt observes, so light contention
//     means short delays without any κ to estimate (and mis-estimate).
//     The cost is a log(κLT) factor in the per-attempt success
//     probability (paper Theorem 6.10) — paid in retries, which the
//     fairness bound keeps cheap in expectation.
//   - Known bounds (WithKappa(κ)) — the paper's base Algorithm 3 with
//     fixed delays T0 = c·κ²L²T and T1 = c′·κLT. It beats the adaptive
//     variant when κ is genuinely known, tight, and stable, because it
//     never spends attempts discovering what you already told it. If κ
//     is overestimated, every attempt pays the inflated schedule; if
//     underestimated, announcement capacity can overflow (a panic).
//     WithDelayConstants tunes c and c′ for experiments.
//
// The measured gap is modest and bounded — on one 2.1 GHz core,
// uncontended Do runs ~1.9µs adaptive vs ~1.1µs known-bounds, a
// contended acquisition ~1.3µs vs ~0.8µs, and a single-key Map
// operation ~156ns vs ~132ns (BenchmarkDoUncontended/DoContended/Map
// and their *Known siblings; cmd/wfbench sweeps every scenario under
// both variants via -variant known|adaptive|both). Against that
// 20–70% constant-factor premium, the adaptive variant removes the
// failure mode that actually bites in production: a κ sized for peak
// contention taxing the off-peak 99% of traffic, or a κ sized for
// typical contention panicking at peak. Start with WithUnknownBounds;
// reach for WithKappa when the contention structure is fixed by
// construction (e.g. a sharded structure whose per-lock κ is pinned by
// the worker count).
//
// Two constant-factor optimizations apply to both variants. The
// uncontended fast path (on by default, WithFastPath(false) to
// disable) checks each target lock's announcement set at the start of
// an attempt; when every lock is observed free the attempt skips the
// delay schedule entirely, collapsing the uncontended acquisition to
// announce-resolve-run. Correctness is unchanged — the skip only
// drops delays whose purpose is contention dispersal, and the
// wait-free step bound still holds because the fast attempt is a
// strict prefix of a slow one. StatsSnapshot.FastPath counts the
// skips. Second, the hot paths are allocation-free: process handles
// are pooled per goroutine, execution descriptors and map-operation
// frames come from per-process bump arenas, and the single-key
// Map/Cell paths run at 0 allocs/op (pinned by testing.AllocsPerRun
// regression tests). Arenas never recycle a published object — the
// idempotence layer's correctness rests on pointer freshness — they
// only amortize allocation of fresh ones.
//
// The bounds are a contract, not a throttle: neither the implicit
// handle pool nor the acquisition paths limit how many goroutines
// attempt concurrently, so κ must cover the peak number of goroutines
// that can contend on any one lock (and P the total concurrent
// attempters, in unknown-bounds mode). Exceeding them panics once a
// lock's announcement capacity overflows.
//
// # Observing helping in production
//
// The algorithm's distinguishing behavior — competitors re-executing a
// stalled winner's critical section — is invisible to ordinary latency
// monitoring: the stalled goroutine's operation completes on time
// because someone else ran it. Three layers of instrumentation make
// the machinery visible, each off (and free) by default.
//
// Stats is always on: cheap per-lock and manager-wide counters
// (attempts, wins, helps, fast-path skips) whose derived
// StatsSnapshot.HelpRate is the first number to watch — near 0 the
// locks are behaving like uncontended mutexes, rising it means helpers
// are carrying stalled winners' work. Read the three rates against the
// benchmarks' two regimes: in the raw regime FastPathRate sits near 1,
// HelpRate near 0, and the delay share near 0 — the machinery is idle
// and the locks cost their constant factors. Under stalls FastPathRate
// falls (attempts observe competitors), HelpRate climbs (it can exceed
// 1: one attempt may run several stalled descriptors), and the delay
// share reports how much of the attempts' own step budget the paper's
// dispersal delays consumed. StatsSnapshot.Sub turns two snapshots
// into a per-interval delta for dashboards and benchmarks.
//
// WithMetrics adds latency distributions: per-P sharded HDR-style
// histograms (relative error ≤ 3.1%) of acquisition latency,
// delay-schedule steps charged per attempt, and help-run wall
// durations, plus the delay share — the fraction of all attempt steps
// burned in the paper's delay schedule. Recording is a handful of
// atomic adds into cache-line-padded shards; the hot paths stay
// allocation-free (pinned by the same AllocsPerRun regression tests),
// and a manager without metrics pays exactly one nil check per
// attempt. Manager.Observe merges the shards into an ObsSnapshot at
// scrape time.
//
// WithTracing(rate) additionally samples one attempt in rate through a
// fixed-size lock-free flight recorder: the sampled attempt emits its
// lifecycle — start, fast-path, each delay point with its computed
// bound, each descriptor it helped (lock ID and wall duration), and
// the final win or lose — into a ring whose Append never blocks,
// allocates, or grows. ObsSnapshot.Events returns the current window;
// sequence numbers are gap-free at the writer, so gaps in a snapshot
// reveal exactly how much the ring evicted.
//
// The serve tier exposes all of it live: wfserve -metrics ADDR serves
// a Prometheus-style /metrics (lock counters, latency quantiles,
// delay share, per-op service times, dispatch-pool and backend-table
// shape), expvar at /debug/vars, and pprof at /debug/pprof/; the RESP
// STATS command reports the same numbers in-band.
//
// # Tracing a request end to end
//
// The counters above say how much helping happened; the causal layer
// says to whom. Three pieces join a slow request to the lock-level
// stall that explains it.
//
// Stall attribution charges every help run and delay step to the lock
// it happened on: ObsSnapshot.Locks lists per-lock rows (helps, help
// nanoseconds, delay steps, alerts), and Map.ShardLockID /
// Cache.ShardLockID report which shard lock a given key's operations
// run under, so "which keys pay for that lock" is a pure hash
// computation away. WithStallWatchdog arms bounds on top: an attempt
// charged more delay steps than one bound, or a single help run
// longer than the other, counts ObsSnapshot.StallAlerts, attributes
// the excession to its lock, and lands in a small alert ring
// (ObsSnapshot.Alerts) — every excession alerts, not just sampled
// ones, so the watchdog is production alerting, not debugging.
// ObsSnapshot.Sub turns two snapshots into the interval delta the
// benchmark tables and dashboards print (histograms subtract
// bucket-wise; Events/Alerts windows pass through).
//
// The serve tier stamps a request span — read, admit, queue, execute,
// flush, each a timestamp in the request's slab slot — for every
// request when tracing is on, tagged with the shard lock ID its key
// hashes to. /debug/wftrace (and wfload -tracefile) export the span
// ring joined with the lock-level flight recorder as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev): process 1
// shows requests by slab slot, process 2 shows lock attempts by pid,
// and "why did this GET take 3ms" becomes visually finding the help
// slice on lock N under the GET's span that names lock N.
//
// cmd/wftop watches the same numbers live: it polls /metrics or RESP
// STATS every interval into a short time-series window and redraws
// ops/s, help rate, fast-path rate, delay share, stall alerts and
// per-shard occupancy; wftop -once prints a single report, and with
// -minhelp fails unless the help rate reaches a bound — the CI shape
// of "helping actually happened under the stall regime".
package wflocks
