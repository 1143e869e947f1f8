package wflocks_test

import (
	"bufio"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wflocks"
	"wflocks/internal/bench"
	"wflocks/internal/serve"
	"wflocks/internal/serve/loadgen"
	"wflocks/internal/workload"
)

// One benchmark per experiment: each regenerates the table reproducing
// a quantitative claim of the paper (the index, with each claim, is
// bench.Experiments in internal/bench/registry.go). Run a single
// experiment's bench with e.g.:
//
//	go test -bench=BenchmarkE3 -benchtime=1x
//
// The full-size tables come from `go run ./cmd/wfbench -scale=full`.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp := bench.Lookup(id)
	if exp == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1StepBound(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2Fairness(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3Philosophers(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4RetrySteps(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5Unknown(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6ActiveSet(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7Idempotence(b *testing.B)   { benchExperiment(b, "E7") }
func BenchmarkE8Baselines(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9DelayAblation(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkE10Native(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11Adaptivity(b *testing.B)   { benchExperiment(b, "E11") }

// Public-API micro-benchmarks. The headline names (DoUncontended,
// DoContended, ...) run the adaptive unknown-bounds configuration —
// the library's recommended default — and their *Known siblings run the
// paper's base algorithm with fixed κ-derived delays, so the pair
// quantifies what delay regime costs on the same workload. The
// TryLock/Do pair additionally quantifies the ergonomic path's
// overhead: Do adds call validation, a pooled handle acquire/release,
// and the retry-policy indirection on top of the same single attempt.
// Body closures and lock slices are hoisted out of the loops: with
// arena-backed attempt state, the steady-state paths run allocation-
// free (see TestDoAllocs). Compare with:
//
//	go test -bench='Uncontended' -benchtime=10000x

// benchManager builds a micro-benchmark manager for one delay variant,
// failing the benchmark on configuration errors.
func benchManager(b *testing.B, v bench.Variant, procs, maxLocks, maxCritical int) *wflocks.Manager {
	b.Helper()
	m, err := bench.NewManager(v, procs, maxLocks, maxCritical)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkTryLockUncontended(b *testing.B)      { benchTryLockUncontended(b, bench.VariantAdaptive) }
func BenchmarkTryLockUncontendedKnown(b *testing.B) { benchTryLockUncontended(b, bench.VariantKnown) }

func benchTryLockUncontended(b *testing.B, v bench.Variant) {
	m := benchManager(b, v, 4, 2, 8)
	l := m.NewLock()
	c := wflocks.NewCell(uint64(0))
	p := m.NewProcess()
	locks := []*wflocks.Lock{l}
	body := func(tx *wflocks.Tx) {
		v := wflocks.Get(tx, c)
		wflocks.Put(tx, c, v+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := m.TryLock(p, locks, 2, body)
		if err != nil || !ok {
			b.Fatal("uncontended TryLock failed")
		}
	}
}

func BenchmarkDoUncontended(b *testing.B)      { benchDoUncontended(b, bench.VariantAdaptive) }
func BenchmarkDoUncontendedKnown(b *testing.B) { benchDoUncontended(b, bench.VariantKnown) }

func benchDoUncontended(b *testing.B, v bench.Variant) {
	m := benchManager(b, v, 4, 2, 8)
	l := m.NewLock()
	c := wflocks.NewCell(uint64(0))
	locks := []*wflocks.Lock{l}
	body := func(tx *wflocks.Tx) {
		v := wflocks.Get(tx, c)
		wflocks.Put(tx, c, v+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Do(locks, 2, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLockContended(b *testing.B)      { benchLockContended(b, bench.VariantAdaptive) }
func BenchmarkLockContendedKnown(b *testing.B) { benchLockContended(b, bench.VariantKnown) }

func benchLockContended(b *testing.B, v bench.Variant) {
	// RunParallel launches GOMAXPROCS goroutines; κ and P must cover
	// them.
	m := benchManager(b, v, 2*runtime.GOMAXPROCS(0), 1, 8)
	l := m.NewLock()
	c := wflocks.NewCell(uint64(0))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := m.NewProcess()
		locks := []*wflocks.Lock{l}
		body := func(tx *wflocks.Tx) {
			v := wflocks.Get(tx, c)
			wflocks.Put(tx, c, v+1)
		}
		for pb.Next() {
			if _, err := m.Lock(p, locks, 2, body); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkDoContended(b *testing.B)      { benchDoContended(b, bench.VariantAdaptive) }
func BenchmarkDoContendedKnown(b *testing.B) { benchDoContended(b, bench.VariantKnown) }

func benchDoContended(b *testing.B, v bench.Variant) {
	m := benchManager(b, v, 2*runtime.GOMAXPROCS(0), 1, 8)
	l := m.NewLock()
	c := wflocks.NewCell(uint64(0))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		locks := []*wflocks.Lock{l}
		body := func(tx *wflocks.Tx) {
			v := wflocks.Get(tx, c)
			wflocks.Put(tx, c, v+1)
		}
		for pb.Next() {
			if err := m.Do(locks, 2, body); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkMap sweeps the wfmap shard count against a sync.Mutex-
// sharded baseline under a 90/10 get/put mix. Total capacity is held
// at 2× the keyspace while shards grow, so each doubling both halves
// the per-lock contention and shrinks the per-shard region — and with
// it the critical-section bound T that the attempts' fixed delays are
// proportional to. Throughput therefore scales superlinearly for
// wfmap (8-shard is well over 3× 1-shard at GOMAXPROCS=8); the mutex
// baseline gives the blocking reference. Compare with:
//
//	go test -bench=Map -benchtime=500x -cpu 8
const benchMapKeys = 128

func BenchmarkMap(b *testing.B) {
	// The headline wfmap rows run the adaptive default; the wfmap-known
	// row shows the paper's base algorithm at the headline shard count.
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("wfmap/shards=%d", shards), func(b *testing.B) {
			benchWfmap(b, bench.VariantAdaptive, shards)
		})
	}
	b.Run("wfmap-known/shards=8", func(b *testing.B) {
		benchWfmap(b, bench.VariantKnown, 8)
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("mutex/shards=%d", shards), func(b *testing.B) {
			benchMutexMap(b, shards)
		})
	}
}

func benchWfmap(b *testing.B, v bench.Variant, shards int) {
	capPerShard := 2 * benchMapKeys / shards
	// κ/P cover the RunParallel goroutine count; the known regime's
	// delay constants of 1 keep its fixed stalls near their minimum so
	// the benchmark measures structure, not calibration margin.
	m, err := bench.NewManager(v, runtime.GOMAXPROCS(0), 1, wflocks.MapCriticalSteps(capPerShard, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	mp, err := wflocks.NewMap[uint64, uint64](m,
		wflocks.WithShards(shards), wflocks.WithShardCapacity(capPerShard))
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < benchMapKeys; k++ {
		if err := mp.Put(k, k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
		for pb.Next() {
			k := rng.Uint64N(benchMapKeys)
			if rng.IntN(10) == 0 {
				if err := mp.Put(k, k); err != nil {
					b.Error(err)
					return
				}
			} else {
				mp.Get(k)
			}
		}
	})
}

func benchMutexMap(b *testing.B, shards int) {
	mm := bench.NewMutexMap(shards)
	for k := uint64(0); k < benchMapKeys; k++ {
		mm.Put(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
		for pb.Next() {
			k := rng.Uint64N(benchMapKeys)
			if rng.IntN(10) == 0 {
				mm.Put(k, k)
			} else {
				mm.Get(k)
			}
		}
	})
}

// BenchmarkCache sweeps the wfcache shard count × key skew against the
// classic single-mutex+container/list LRU, in the regime the paper
// targets: lock holders that stall mid-critical-section (a preempted
// vCPU, a page fault, a GC pause), modeled by a value codec whose
// encode periodically sleeps — inside the critical section for
// wfcache, while holding the mutex for the baseline (see
// internal/bench.StallPoint). A stalled mutex holder blocks the whole
// cache; a stalled wfcache winner is helped, so only the stalled
// goroutine loses time and the sleeps of different workers overlap.
// Expect the 8-shard wfcache to beat the mutex LRU on the cache:zipf
// shape at -cpu 8. The nostall group shows the raw regime, where the
// blocking baseline wins on constant factors (wait-free attempts pay
// the fixed c·κ²L²T delays); both numbers together are the honest
// story. Each sub-benchmark also reports its measured hit rate.
// Compare with:
//
//	go test -bench=Cache -benchtime=500x -cpu 8
const (
	benchStallPeriod = 16
	benchStallDur    = 8 * time.Millisecond
)

func BenchmarkCache(b *testing.B) {
	for _, scName := range []string{"cache:zipf", "cache:read"} {
		sc := workload.LookupCacheScenario(scName)
		if sc == nil {
			b.Fatalf("scenario %s missing", scName)
		}
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/wfcache/shards=%d", sc.Name, shards), func(b *testing.B) {
				benchWfcache(b, sc, shards, bench.NewStallPoint(benchStallPeriod, benchStallDur))
			})
		}
		b.Run(fmt.Sprintf("%s/mutexlru", sc.Name), func(b *testing.B) {
			benchMutexLRU(b, sc, bench.NewStallPoint(benchStallPeriod, benchStallDur))
		})
	}
	// The raw regime for the headline pair, for scale.
	sc := workload.LookupCacheScenario("cache:zipf")
	b.Run("nostall/cache:zipf/wfcache/shards=8", func(b *testing.B) {
		benchWfcache(b, sc, 8, nil)
	})
	b.Run("nostall/cache:zipf/mutexlru", func(b *testing.B) {
		benchMutexLRU(b, sc, nil)
	})
}

// benchCacheWorkers pins the worker-goroutine count: the stall regime
// is about overlap — sleeping workers must leave runnable competitors
// behind to help (wfcache) or to block (mutex) — so the benchmark
// needs real concurrency even when GOMAXPROCS is low. It returns the
// b.SetParallelism multiplier and the resulting total worker count.
func benchCacheWorkers() (par, workers int) {
	procs := runtime.GOMAXPROCS(0)
	par = 1
	for procs*par < 8 {
		par++
	}
	return par, procs * par
}

func benchWfcache(b *testing.B, sc *workload.CacheScenario, shards int, sp *bench.StallPoint) {
	par, workers := benchCacheWorkers()
	b.SetParallelism(par)
	// CacheCriticalSteps pow2-rounds per-shard capacity exactly as the
	// constructor does, so the raw quotient is the right input.
	perShard := (sc.Capacity + shards - 1) / shards
	m, err := wflocks.New(
		wflocks.WithKappa(workers),
		wflocks.WithMaxLocks(1),
		wflocks.WithMaxCriticalSteps(wflocks.CacheCriticalSteps(perShard, 1, 1)),
		wflocks.WithDelayConstants(1, 1),
	)
	if err != nil {
		b.Fatal(err)
	}
	vc := wflocks.Codec[uint64](wflocks.IntegerCodec[uint64]())
	if sp != nil {
		vc = bench.StallValueCodec(sp)
	}
	c, err := wflocks.NewCacheOf[uint64, uint64](m, wflocks.IntegerCodec[uint64](), vc,
		wflocks.WithCacheShards(shards), wflocks.WithCapacity(sc.Capacity))
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < uint64(sc.Capacity); k++ {
		c.Put(k, k*3)
	}
	sp.Arm()
	base := c.Stats()
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		st := workload.NewCacheOpStream(sc, seed.Add(1)*0x9e3779b97f4a7c15)
		for pb.Next() {
			kind, key := st.Next()
			k := uint64(key)
			switch kind {
			case workload.CacheGet:
				c.GetOrCompute(k, func() uint64 { return k * 3 })
			case workload.CachePut:
				c.Put(k, k*3)
			case workload.CacheDelete:
				c.Delete(k)
			}
		}
	})
	b.StopTimer()
	cs := c.Stats()
	if acc := (cs.Hits - base.Hits) + (cs.Misses - base.Misses); acc > 0 {
		b.ReportMetric(float64(cs.Hits-base.Hits)/float64(acc), "hitrate")
	}
}

func benchMutexLRU(b *testing.B, sc *workload.CacheScenario, sp *bench.StallPoint) {
	par, _ := benchCacheWorkers()
	b.SetParallelism(par)
	c := bench.NewMutexLRU(sc.Capacity, sp)
	for k := uint64(0); k < uint64(sc.Capacity); k++ {
		c.Put(k, k*3)
	}
	sp.Arm()
	h0, m0, _ := c.Counters()
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		st := workload.NewCacheOpStream(sc, seed.Add(1)*0x9e3779b97f4a7c15)
		for pb.Next() {
			kind, key := st.Next()
			k := uint64(key)
			switch kind {
			case workload.CacheGet:
				if _, ok := c.Get(k); !ok {
					c.Put(k, k*3)
				}
			case workload.CachePut:
				c.Put(k, k*3)
			case workload.CacheDelete:
				c.Delete(k)
			}
		}
	})
	b.StopTimer()
	hits, misses, _ := c.Counters()
	if acc := (hits - h0) + (misses - m0); acc > 0 {
		b.ReportMetric(float64(hits-h0)/float64(acc), "hitrate")
	}
}

// BenchmarkTxn sweeps the keys-per-transaction count L over wfmap's
// multi-lock Atomic path against a sorted-multi-mutex baseline, in the
// holder-stall regime the paper targets (see BenchmarkCache for the
// regime rationale). Each transaction transfers value between L keys;
// stalls are injected through the value-write path on both sides. Every
// wfmap attempt pays fixed delays growing as κ²L²·T(L) — T itself is L
// single-shard budgets — so the sweep shows both sides of the paper's
// trade: at small L helping absorbs stalls that serialize the blocking
// baseline across every held shard, while at L=8 the delay product is
// the dominant cost. The worker count is pinned small (κ² pricing) and
// each run audits transfer conservation. Compare with:
//
//	go test -bench=Txn -benchtime=200x -cpu 4
const (
	benchTxnKeys    = 64
	benchTxnShards  = 8
	benchTxnWorkers = 4
)

func BenchmarkTxn(b *testing.B) {
	for _, l := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("wfmap/L=%d", l), func(b *testing.B) {
			benchWfmapTxn(b, l, bench.NewStallPoint(benchStallPeriod, benchStallDur))
		})
	}
	for _, l := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("multimutex/L=%d", l), func(b *testing.B) {
			benchMultiMutexTxn(b, l, bench.NewStallPoint(benchStallPeriod, benchStallDur))
		})
	}
}

// benchTxnParallelism pins the worker count to benchTxnWorkers
// regardless of -cpu, as benchCacheWorkers does for the cache.
func benchTxnParallelism(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	par := 1
	for procs*par < benchTxnWorkers {
		par++
	}
	b.SetParallelism(par)
}

func benchWfmapTxn(b *testing.B, l int, sp *bench.StallPoint) {
	benchTxnParallelism(b)
	capPerShard := 2 * benchTxnKeys / benchTxnShards
	workers := runtime.GOMAXPROCS(0)
	if workers < benchTxnWorkers {
		workers = benchTxnWorkers
	}
	m, err := wflocks.New(
		wflocks.WithKappa(workers),
		wflocks.WithMaxLocks(l),
		wflocks.WithMaxCriticalSteps(wflocks.MapAtomicSteps(capPerShard, 1, 1, l)),
		wflocks.WithDelayConstants(1, 1),
	)
	if err != nil {
		b.Fatal(err)
	}
	vc := wflocks.Codec[uint64](wflocks.IntegerCodec[uint64]())
	if sp != nil {
		vc = bench.StallValueCodec(sp)
	}
	mp, err := wflocks.NewMapOf[uint64, uint64](m, wflocks.IntegerCodec[uint64](), vc,
		wflocks.WithShards(benchTxnShards), wflocks.WithShardCapacity(capPerShard))
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < benchTxnKeys; k++ {
		if err := mp.Put(k, 100); err != nil {
			b.Fatal(err)
		}
	}
	sp.Arm()
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(seed.Add(1), 0x9e3779b97f4a7c15))
		for pb.Next() {
			keys := drawDistinctKeys(rng, l, benchTxnKeys)
			if err := mp.Atomic(keys, func(tx *wflocks.MapTxn[uint64, uint64]) {
				ks := tx.Keys()
				gained := uint64(0)
				for _, k := range ks[1:] {
					if v, ok := tx.Get(k); ok && v > 0 {
						tx.Put(k, v-1)
						gained++
					}
				}
				v, _ := tx.Get(ks[0])
				tx.Put(ks[0], v+gained)
			}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	total := uint64(0)
	for _, v := range mp.All() {
		total += v
	}
	if total != benchTxnKeys*100 {
		b.Fatalf("conservation violated: sum %d, want %d", total, benchTxnKeys*100)
	}
}

func benchMultiMutexTxn(b *testing.B, l int, sp *bench.StallPoint) {
	benchTxnParallelism(b)
	mm := bench.NewMultiMutexMap(benchTxnShards, sp)
	for k := uint64(0); k < benchTxnKeys; k++ {
		mm.Put(k, 100)
	}
	sp.Arm()
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(seed.Add(1), 0x9e3779b97f4a7c15))
		for pb.Next() {
			keys := drawDistinctKeys(rng, l, benchTxnKeys)
			mm.Atomic(keys, func(get func(uint64) (uint64, bool), put func(uint64, uint64)) {
				gained := uint64(0)
				for _, k := range keys[1:] {
					if v, ok := get(k); ok && v > 0 {
						put(k, v-1)
						gained++
					}
				}
				v, _ := get(keys[0])
				put(keys[0], v+gained)
			})
		}
	})
	b.StopTimer()
	if got := mm.Sum(); got != benchTxnKeys*100 {
		b.Fatalf("conservation violated: sum %d, want %d", got, benchTxnKeys*100)
	}
}

// drawDistinctKeys samples l distinct keys in [0, n). The slice is
// freshly allocated per call: wfmap transaction bodies may be
// re-executed by straggling helpers after the call returns, so key
// buffers must never be reused.
func drawDistinctKeys(rng *rand.Rand, l, n int) []uint64 {
	keys := make([]uint64, 0, l)
	for len(keys) < l {
		k := rng.Uint64N(uint64(n))
		dup := false
		for _, have := range keys {
			if have == k {
				dup = true
				break
			}
		}
		if !dup {
			keys = append(keys, k)
		}
	}
	return keys
}

func BenchmarkCellReadWrite(b *testing.B) {
	m, err := wflocks.New(wflocks.WithKappa(2))
	if err != nil {
		b.Fatal(err)
	}
	p := m.NewProcess()
	c := wflocks.NewCell(uint64(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Set(p, c.Get(p)+1)
	}
}

func BenchmarkStructCellReadWrite(b *testing.B) {
	type pair struct{ A, B uint64 }
	codec := wflocks.CodecFunc(2,
		func(v pair, dst []uint64) { dst[0], dst[1] = v.A, v.B },
		func(src []uint64) pair { return pair{src[0], src[1]} })
	m, err := wflocks.New(wflocks.WithKappa(2))
	if err != nil {
		b.Fatal(err)
	}
	p := m.NewProcess()
	c := wflocks.NewCellOf(codec, pair{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := c.Get(p)
		v.A++
		v.B++
		c.Set(p, v)
	}
}

// BenchmarkQueue sweeps the WorkPool shard count (plus the single-ring
// Queue) against the mutex+ring and buffered-channel baselines on a
// balanced MPMC shape — every worker enqueues one element and dequeues
// one per iteration — in the holder-stall regime the paper targets
// (see BenchmarkCache for the regime rationale). Stalls ride the
// value-write path on every side that has a lock to hold: wfqueue
// encodes stall inside critical sections, the mutex+ring stalls while
// holding its mutex, and the channel draws its stalls outside the op
// (a goroutine cannot sleep holding the runtime's channel lock), which
// makes it the stall-tolerant reference. The queue managers run the
// unknown-bounds adaptive variant, as in internal/bench's queue
// scenario runner: after sharding, per-lock contention is far below
// the worker count, and the Section 6.2 algorithm's delays track
// actual contention. Expect the 8-shard WorkPool to beat the
// mutex+ring well beyond 2× under stalls, and the nostall group to
// show the raw regime where the blocking baselines win on constant
// factors. Compare with:
//
//	go test -bench=Queue -benchtime=500x -cpu 8
const benchQueueCapacity = 256

func BenchmarkQueue(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workpool/shards=%d", shards), func(b *testing.B) {
			benchWorkPool(b, shards, bench.NewStallPoint(benchStallPeriod, benchStallDur))
		})
	}
	b.Run("wfqueue", func(b *testing.B) {
		benchWfQueue(b, bench.NewStallPoint(benchStallPeriod, benchStallDur))
	})
	b.Run("mutexring", func(b *testing.B) {
		benchMutexRing(b, bench.NewStallPoint(benchStallPeriod, benchStallDur))
	})
	b.Run("channel", func(b *testing.B) {
		benchChanQueue(b, bench.NewStallPoint(benchStallPeriod, benchStallDur))
	})
	b.Run("nostall/workpool/shards=8", func(b *testing.B) {
		benchWorkPool(b, 8, nil)
	})
	b.Run("nostall/mutexring", func(b *testing.B) {
		benchMutexRing(b, nil)
	})
}

// benchQueuePair runs the balanced enqueue-then-dequeue iteration; the
// queue never grows beyond the worker count, so full rejects are rare
// and empty rejects only happen transiently.
func benchQueuePair(b *testing.B, enq func(uint64) bool, deq func() (uint64, bool)) {
	par, _ := benchCacheWorkers()
	b.SetParallelism(par)
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := seed.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			v++
			for !enq(v) {
				runtime.Gosched()
			}
			for {
				if _, ok := deq(); ok {
					break
				}
				runtime.Gosched()
			}
		}
	})
}

func benchWorkPool(b *testing.B, shards int, sp *bench.StallPoint) {
	_, workers := benchCacheWorkers()
	m, err := wflocks.New(
		wflocks.WithUnknownBounds(workers+2),
		wflocks.WithMaxLocks(2),
		wflocks.WithMaxCriticalSteps(wflocks.WorkPoolCriticalSteps(1, 1)),
	)
	if err != nil {
		b.Fatal(err)
	}
	vc := wflocks.Codec[uint64](wflocks.IntegerCodec[uint64]())
	if sp != nil {
		vc = bench.StallValueCodec(sp)
	}
	wp, err := wflocks.NewWorkPoolOf[uint64](m, vc,
		wflocks.WithPoolShards(shards), wflocks.WithPoolCapacity(benchQueueCapacity),
		wflocks.WithPoolBatch(1))
	if err != nil {
		b.Fatal(err)
	}
	sp.Arm()
	benchQueuePair(b, wp.TryEnqueue, wp.TryDequeue)
	b.StopTimer()
	if n := wp.Len(); n != 0 {
		b.Fatalf("pool holds %d elements after balanced run", n)
	}
	s := wp.Stats()
	b.ReportMetric(float64(s.Steals), "steals")
}

func benchWfQueue(b *testing.B, sp *bench.StallPoint) {
	_, workers := benchCacheWorkers()
	m, err := wflocks.New(
		wflocks.WithUnknownBounds(workers+2),
		wflocks.WithMaxLocks(1),
		wflocks.WithMaxCriticalSteps(wflocks.QueueCriticalSteps(1, 1)),
	)
	if err != nil {
		b.Fatal(err)
	}
	vc := wflocks.Codec[uint64](wflocks.IntegerCodec[uint64]())
	if sp != nil {
		vc = bench.StallValueCodec(sp)
	}
	q, err := wflocks.NewQueueOf[uint64](m, vc,
		wflocks.WithQueueCapacity(benchQueueCapacity), wflocks.WithQueueBatch(1))
	if err != nil {
		b.Fatal(err)
	}
	sp.Arm()
	benchQueuePair(b, q.TryEnqueue, q.TryDequeue)
	b.StopTimer()
	if n := q.Len(); n != 0 {
		b.Fatalf("queue holds %d elements after balanced run", n)
	}
}

func benchMutexRing(b *testing.B, sp *bench.StallPoint) {
	q := bench.NewMutexRing(benchQueueCapacity, sp)
	sp.Arm()
	benchQueuePair(b, q.TryEnqueue, q.TryDequeue)
}

func benchChanQueue(b *testing.B, sp *bench.StallPoint) {
	q := bench.NewChanQueue(benchQueueCapacity, sp)
	sp.Arm()
	benchQueuePair(b, q.TryEnqueue, q.TryDequeue)
}

// BenchmarkServe drives the wfserve request pipeline end to end over
// the in-process loopback transport: protocol parse, shard-by-key
// WorkPool dispatch, backend execution, ordered pipelined responses.
// One pipelined connection issues GETs against a prefilled backend —
// a closed-loop throughput shape (the open-loop tail-latency numbers
// live in `wfbench -workload service:read`, where coordinated-omission
// safety makes them meaningful).
func BenchmarkServe(b *testing.B) {
	for _, backend := range []string{"cache", "map", "mutex"} {
		b.Run("backend="+backend, func(b *testing.B) { benchServe(b, backend) })
	}
}

func benchServe(b *testing.B, backend string) {
	const keys = 256
	s, err := serve.NewServer(serve.Config{
		Backend:     backend,
		Shards:      8,
		Capacity:    2 * keys,
		MaxKeyBytes: 16,
		MaxValBytes: 32,
		NewManager:  bench.AdaptiveManager,
	})
	if err != nil {
		b.Fatal(err)
	}
	lis := serve.NewLoopback()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(lis) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Error(err)
		}
		if err := <-serveDone; err != nil {
			b.Error(err)
		}
	}()
	for k := 0; k < keys; k++ {
		if err := s.Backend().Set(loadgen.Key(k), loadgen.Val(32), 0); err != nil {
			b.Fatal(err)
		}
	}

	conn, err := lis.Dial()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	b.ResetTimer()
	writeDone := make(chan error, 1)
	go func() {
		bw := bufio.NewWriter(conn)
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = serve.AppendCommand(buf[:0], "GET", loadgen.Key(i%keys))
			if _, err := bw.Write(buf); err != nil {
				writeDone <- err
				return
			}
		}
		writeDone <- bw.Flush()
	}()
	for i := 0; i < b.N; i++ {
		r, err := serve.ReadReply(br)
		if err != nil {
			b.Fatal(err)
		}
		if r.Kind != serve.ReplyBulk {
			b.Fatalf("reply %d = %+v", i, r)
		}
	}
	if err := <-writeDone; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLog sweeps the wflog shard count against the mutex+slice
// broadcast baseline on a balanced fan-out shape: every worker owns a
// cursor, appends one entry per iteration and drains its own cursor,
// so each entry is delivered to every worker and retention stays near
// the worker count. The holder-stall regime rides the value-write path
// on both sides (see BenchmarkCache for the regime rationale): wflog
// encodes stall inside append and cursor-advance critical sections,
// the mutex+slice log stalls while holding its one mutex on appends
// and reads. The channel fan-out baseline is covered by the scenario
// runner (`wfbench -workload log:fanout`) — its broadcaster goroutine
// does not fit the per-iteration lifecycle here. Expect the 8-shard
// wflog to beat the mutex+slice log well beyond 2× under stalls, and
// the nostall group to show the raw regime where the blocking
// baseline wins on constant factors. Compare with:
//
//	go test -bench=Log -benchtime=200x -cpu 8
const (
	benchLogCapacity = 1024
	benchLogSegment  = 64
)

func BenchmarkLog(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("wflog/shards=%d", shards), func(b *testing.B) {
			benchWfLog(b, shards, bench.NewStallPoint(benchStallPeriod, benchStallDur))
		})
	}
	b.Run("mutexslice", func(b *testing.B) {
		benchMutexSliceLog(b, bench.NewStallPoint(benchStallPeriod, benchStallDur))
	})
	b.Run("nostall/wflog/shards=8", func(b *testing.B) { benchWfLog(b, 8, nil) })
	b.Run("nostall/mutexslice", func(b *testing.B) { benchMutexSliceLog(b, nil) })
}

// benchLogRound runs the balanced broadcast iteration: append one,
// drain the worker's own cursor. The append retry loop also drains, so
// a full ring pinned by the spinning worker's own backlog always makes
// progress; workers detach their cursors on exit so finished workers
// stop pinning reclamation for the rest.
func benchLogRound(b *testing.B, append func(uint64) bool,
	newReader func() (func() (uint64, bool), func(), error)) {
	par, _ := benchCacheWorkers()
	b.SetParallelism(par)
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		read, detach, err := newReader()
		if err != nil {
			b.Error(err)
			return
		}
		defer detach()
		v := seed.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			v++
			for !append(v) {
				if _, ok := read(); !ok {
					runtime.Gosched()
				}
			}
			for {
				if _, ok := read(); !ok {
					break
				}
			}
		}
	})
}

func benchWfLog(b *testing.B, shards int, sp *bench.StallPoint) {
	_, workers := benchCacheWorkers()
	m, err := wflocks.New(
		wflocks.WithUnknownBounds(workers+2),
		wflocks.WithMaxLocks(2),
		wflocks.WithMaxCriticalSteps(wflocks.LogCriticalSteps(1, 1, workers, benchLogSegment)),
	)
	if err != nil {
		b.Fatal(err)
	}
	vc := wflocks.Codec[uint64](wflocks.IntegerCodec[uint64]())
	if sp != nil {
		vc = bench.StallValueCodec(sp)
	}
	lg, err := wflocks.NewLogOf[uint64](m, vc,
		wflocks.WithLogShards(shards), wflocks.WithLogCapacity(benchLogCapacity),
		wflocks.WithLogSegment(benchLogSegment), wflocks.WithLogBatch(1),
		wflocks.WithLogConsumers(workers))
	if err != nil {
		b.Fatal(err)
	}
	sp.Arm()
	benchLogRound(b, lg.TryAppend, func() (func() (uint64, bool), func(), error) {
		cur, err := lg.NewCursor()
		if err != nil {
			return nil, nil, err
		}
		return cur.TryNext, cur.Close, nil
	})
}

func benchMutexSliceLog(b *testing.B, sp *bench.StallPoint) {
	l := bench.NewMutexSliceLog(benchLogCapacity, sp)
	sp.Arm()
	benchLogRound(b, func(v uint64) bool { return l.TryAppend(0, v) },
		func() (func() (uint64, bool), func(), error) {
			r := l.NewReader()
			return r.TryNext, r.Close, nil
		})
}
