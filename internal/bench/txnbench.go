package bench

import (
	"fmt"
	"sort"

	"wflocks"
	"wflocks/internal/workload"
)

// Transaction workload runner: drives a workload.TxnScenario against
// wfmap's multi-key Atomic path and against a sorted-multi-mutex
// baseline, sweeping the keys-per-transaction count L. This is the
// benchmark where the paper's L-dependence is visible end to end: every
// wfmap attempt pays fixed delays proportional to κ²L²T (and T itself
// grows with L, since the transaction budget is L single-shard
// budgets), buying wait-freedom and helping in exchange. The honest
// comparison therefore runs both regimes:
//
//   - raw: the blocking baseline wins, increasingly so at higher L —
//     the κ²L²·(L·budget) delay product is the documented price of the
//     guarantees, not an implementation accident;
//   - holder-stall (the paper's regime): lock holders stall
//     mid-critical-section. A stalled multi-mutex holder blocks every
//     transaction sharing any of its shards for the stall; a stalled
//     wfmap transaction is helped — competitors re-execute its body
//     and move on — so stalls overlap instead of serializing.
//
// Every run double-checks conservation: transfers move value between
// keys, so the keyspace sum must be exactly what prefill deposited, on
// both implementations, or the run fails.

// txnLCounts is the keys-per-transaction sweep.
var txnLCounts = []int{1, 2, 4, 8}

// txnWorkers pins the driver goroutine count. It is deliberately small:
// κ must cover every concurrent attempt, and the wait-free attempts'
// fixed delays grow with κ² — a large worker pool would measure the
// calibration margin, not the structure.
const txnWorkers = 4

// txnInitial is the per-key prefill every transfer conserves.
const txnInitial = 100

// MultiMutexMap is the blocking baseline for multi-key transactions: a
// sync.Mutex-sharded map whose Atomic acquires the deduplicated shard
// mutexes in sorted order (the classic deadlock-avoidance protocol) and
// holds them all for the duration of the body. A stalled holder blocks
// every shard it holds.
type MultiMutexMap struct {
	MutexMap // single-key access (the prefill path) and the shard layout
	stall    *workload.StallPoint
}

// NewMultiMutexMap creates a baseline map with the given shard count
// (rounded up to a power of two). stall, which may be nil, is drawn
// once per value write while the shard mutexes are held, mirroring
// wfmap's in-critical-section value encodes.
func NewMultiMutexMap(shardCount int, stall *workload.StallPoint) *MultiMutexMap {
	return &MultiMutexMap{MutexMap: *NewMutexMap(shardCount), stall: stall}
}

// Sum reads the whole map (quiescent; conservation audits).
func (mm *MultiMutexMap) Sum() uint64 {
	total := uint64(0)
	for i := range mm.shards {
		sh := &mm.shards[i]
		sh.mu.Lock()
		for _, v := range sh.m {
			total += v
		}
		sh.mu.Unlock()
	}
	return total
}

// Atomic locks the keys' deduplicated shard mutexes in sorted order,
// runs fn with direct get/put access, and unlocks in reverse. fn's
// value writes draw from the stall point while every lock is held —
// the regime where blocking designs serialize their stalls.
func (mm *MultiMutexMap) Atomic(keys []uint64, fn func(get func(uint64) (uint64, bool), put func(uint64, uint64))) {
	shards := make([]int, 0, len(keys))
	for _, k := range keys {
		si := int(mm.shardIndex(k))
		dup := false
		for _, have := range shards {
			if have == si {
				dup = true
				break
			}
		}
		if !dup {
			shards = append(shards, si)
		}
	}
	sort.Ints(shards)
	for _, si := range shards {
		mm.shards[si].mu.Lock()
	}
	fn(
		func(k uint64) (uint64, bool) {
			v, ok := mm.shards[mm.shardIndex(k)].m[k]
			return v, ok
		},
		func(k, v uint64) {
			mm.stall.Hit()
			mm.shards[mm.shardIndex(k)].m[k] = v
		},
	)
	for i := len(shards) - 1; i >= 0; i-- {
		mm.shards[shards[i]].mu.Unlock()
	}
}

// txnSweep drives sc against wfmap Atomic (under each delay variant)
// and the sorted multi-mutex baseline across the L sweep, in the raw
// and holder-stall regimes, and tabulates throughput, per-attempt
// success rate and the conservation audit.
func txnSweep(sc *workload.TxnScenario, s Scale, vs []Variant) (*sweep, error) {
	opsPer := s.pick(50, 400)
	sw := &sweep{
		title: fmt.Sprintf("%s: %d%%/%d%% transfer/read, %d keys, skew %.1f, %d workers × %d txns, L swept",
			sc.Name, sc.TransferPct, 100-sc.TransferPct, sc.Keys, sc.Skew, txnWorkers, opsPer),
		param:  "L",
		stalls: true,
		rate:   "txns/sec",
		cols:   []string{"success", "attempts/txn", "conserved"},
		obs:    true,
		notes: []string{
			"each wfmap row runs its own manager sized for its L: WithMaxLocks(L), T = MapAtomicSteps(cap, 1, 1, L)",
			"adaptive rows use WithUnknownBounds delays that track point contention (the recommended default); known rows pay the fixed delays",
			"raw regime: the known-bounds delays grow as κ²L²·T(L) — the documented price of wait-freedom, steepest at L=8",
			fmt.Sprintf("stall regime: holders stall mid-transaction (%v every %d value writes); wfmap helpers absorb stalls, the sorted-mutex baseline serializes them across every held shard", workload.StallDur, workload.StallPeriod),
			"conserved audits the transfer invariant: the keyspace sum must equal the prefill exactly"},
	}
	for _, v := range vs {
		for _, l := range txnLCounts {
			sw.rows = append(sw.rows, row{"wfmap/" + string(v), fmt.Sprint(l), func(sp *workload.StallPoint) (*run, error) {
				return wfmapTxnRun(sc, v, l, opsPer, sp)
			}})
		}
	}
	for _, l := range txnLCounts {
		sw.rows = append(sw.rows, row{"multimutex", fmt.Sprint(l), func(sp *workload.StallPoint) (*run, error) {
			return multiMutexTxnRun(sc, l, opsPer, sp), nil
		}})
	}
	return sw, nil
}

// txnMapShards is the shard count of both implementations in the sweep
// (fixed so L, not the shard layout, is the swept variable).
const txnMapShards = 8

// txnWork is a txn row's per-goroutine share of the timed run: opsPer
// transactions over l keys drawn from the goroutine's own stream, each
// run by atomic. The keys buffer is reused across transactions.
func txnWork(sc *workload.TxnScenario, l, opsPer int, atomic func(kind workload.TxnOp, keys []uint64) error) func(int) error {
	return func(w int) error {
		st := workload.NewTxnOpStream(sc, l, workerSeed(w))
		keys := make([]uint64, l)
		for i := 0; i < opsPer; i++ {
			kind, drawn := st.Next()
			for j, k := range drawn {
				keys[j] = uint64(k)
			}
			if err := atomic(kind, keys); err != nil {
				return err
			}
		}
		return nil
	}
}

// transfer is the transfer body both implementations run: every key
// after the first gives one unit to the first, if it has one. The
// credit write is unconditional so every L — including 1 — writes at
// least one value per transaction (and draws the stall schedule).
func transfer(keys []uint64, get func(uint64) (uint64, bool), put func(uint64, uint64)) {
	gained := uint64(0)
	for _, k := range keys[1:] {
		if v, ok := get(k); ok && v > 0 {
			put(k, v-1)
			gained++
		}
	}
	v, _ := get(keys[0])
	put(keys[0], v+gained)
}

// wfmapTxnRun builds one wfmap configuration at keys-per-txn l under
// one delay variant. A conservation violation fails the run.
func wfmapTxnRun(sc *workload.TxnScenario, v Variant, l, opsPer int, sp *workload.StallPoint) (*run, error) {
	capPerShard := nextPow2(2 * sc.Keys / txnMapShards)
	m, err := NewManager(v, txnWorkers, l, wflocks.MapAtomicSteps(capPerShard, 1, 1, l), wflocks.WithMetrics())
	if err != nil {
		return nil, err
	}
	mp, err := wflocks.NewMapOf[uint64, uint64](m, wflocks.IntegerCodec[uint64](), StallValueCodec(sp),
		wflocks.WithShards(txnMapShards), wflocks.WithShardCapacity(capPerShard))
	if err != nil {
		return nil, err
	}
	for k := 0; k < sc.Keys; k++ {
		if err := mp.Put(uint64(k), txnInitial); err != nil {
			return nil, err
		}
	}
	return &run{
		mgrs:    []*wflocks.Manager{m},
		workers: txnWorkers,
		ops:     txnWorkers * opsPer,
		// Bodies read tx.Keys(), never the reused keys buffer: a
		// straggling helper may re-execute a body after its worker has
		// refilled the buffer for its next transaction.
		work: txnWork(sc, l, opsPer, func(kind workload.TxnOp, keys []uint64) error {
			if kind == workload.TxnTransfer {
				return mp.Atomic(keys, func(tx *wflocks.MapTxn[uint64, uint64]) {
					transfer(tx.Keys(), tx.Get, func(k, v uint64) { tx.Put(k, v) })
				})
			}
			return mp.Atomic(keys, func(tx *wflocks.MapTxn[uint64, uint64]) {
				for _, k := range tx.Keys() {
					tx.Get(k)
				}
			})
		}),
		finish: func() error {
			total := uint64(0)
			for _, v := range mp.All() {
				total += v
			}
			if total != uint64(sc.Keys)*txnInitial {
				return fmt.Errorf("conservation violated: sum %d, want %d", total, sc.Keys*txnInitial)
			}
			return nil
		},
		cols: func(t *tally) []string { return []string{t.success(), t.attemptsPer(t.ops), "yes"} },
	}, nil
}

// multiMutexTxnRun builds the baseline at keys-per-txn l.
func multiMutexTxnRun(sc *workload.TxnScenario, l, opsPer int, sp *workload.StallPoint) *run {
	mm := NewMultiMutexMap(txnMapShards, sp)
	for k := 0; k < sc.Keys; k++ {
		mm.Put(uint64(k), txnInitial)
	}
	return &run{
		workers: txnWorkers,
		ops:     txnWorkers * opsPer,
		work: txnWork(sc, l, opsPer, func(kind workload.TxnOp, keys []uint64) error {
			mm.Atomic(keys, func(get func(uint64) (uint64, bool), put func(uint64, uint64)) {
				if kind == workload.TxnTransfer {
					transfer(keys, get, put)
					return
				}
				for _, k := range keys {
					get(k)
				}
			})
			return nil
		}),
		cols: func(t *tally) []string {
			conserved := "yes"
			if mm.Sum() != uint64(sc.Keys)*txnInitial {
				conserved = "NO"
			}
			return []string{t.success(), t.attemptsPer(t.ops), conserved}
		},
	}
}
