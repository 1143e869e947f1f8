package bench

import (
	"container/list"
	"fmt"
	"sync"

	"wflocks"
	"wflocks/internal/workload"
)

// Cache workload runner: drives a workload.CacheScenario against the
// wfcache subsystem and against a classic mutex+container/list LRU,
// in two regimes.
//
// In the raw regime the blocking baseline wins on absolute ops/sec —
// every wait-free attempt pays the paper's fixed delays (c·κ²L²T own
// steps), a constant-factor price a sync.Mutex does not pay. The
// interesting regime is the paper's: lock holders that stall
// mid-critical-section (a preempted vCPU, a page fault, a GC pause).
// A stalled mutex holder blocks its whole cache for the stall; a
// stalled wfcache winner is helped — competitors re-execute its
// critical section through the idempotence layer and move on, so the
// stall costs only the stalled goroutine.
//
// The stall is injected symmetrically through the value-write path:
// the baseline calls a StallPoint while holding its mutex whenever it
// touches an entry's value, and wfcache's values go through a codec
// whose Encode calls the same StallPoint. During the measured run,
// every wfcache value encode happens inside a critical section (bucket
// writes and result-cell writes are both body operations; result cells
// are constructed unencoded), so a helper re-executing a stalled body
// draws its own — almost always stall-free — pass and completes the
// stalled winner's work. The one residual asymmetry cuts against
// wfcache: a GetOrCompute miss encodes its computed candidate into a
// fresh cell before taking the lock, an extra off-lock draw per miss
// that the baseline does not pay. The draw is per execution, not per
// logical op, which is exactly the preemption model: stalls strike the
// executing process, not the operation.

// MutexLRU is the blocking baseline: the classic cache design — one
// sync.Mutex guarding a map plus a container/list recency list, as in
// the widely used golang-lru shape. Even reads take the global lock
// (bumping recency is a write), so a stalled holder blocks every
// caller; that is the behavior the wait-free construction exists to
// avoid.
type MutexLRU struct {
	mu       sync.Mutex
	capacity int
	entries  map[uint64]*list.Element
	order    *list.List // front = most recently used
	stall    *workload.StallPoint

	hits, misses, evictions uint64
}

type lruEntry struct{ k, v uint64 }

// NewMutexLRU creates a baseline cache with the given capacity. stall
// (which may be nil) is drawn while the mutex is held whenever an
// entry's value is touched, mirroring wfcache's in-critical-section
// encode.
func NewMutexLRU(capacity int, stall *workload.StallPoint) *MutexLRU {
	return &MutexLRU{
		capacity: capacity,
		entries:  make(map[uint64]*list.Element, capacity),
		order:    list.New(),
		stall:    stall,
	}
}

// Get returns the value cached for k, bumping its recency.
func (c *MutexLRU) Get(k uint64) (uint64, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return 0, false
	}
	c.stall.Hit()
	c.order.MoveToFront(e)
	v := e.Value.(*lruEntry).v
	c.hits++
	c.mu.Unlock()
	return v, true
}

// Put stores v for k, evicting the LRU entry at capacity.
func (c *MutexLRU) Put(k, v uint64) {
	c.mu.Lock()
	c.stall.Hit()
	if e, ok := c.entries[k]; ok {
		e.Value.(*lruEntry).v = v
		c.order.MoveToFront(e)
		c.mu.Unlock()
		return
	}
	if c.order.Len() >= c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*lruEntry).k)
		c.evictions++
	}
	c.entries[k] = c.order.PushFront(&lruEntry{k: k, v: v})
	c.mu.Unlock()
}

// Delete removes k, reporting whether it was present.
func (c *MutexLRU) Delete(k uint64) bool {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.order.Remove(e)
		delete(c.entries, k)
	}
	c.mu.Unlock()
	return ok
}

// Len reports the entry count.
func (c *MutexLRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters reports hits, misses and evictions so far.
func (c *MutexLRU) Counters() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// cacheShardCounts is the shard sweep of the cache benchmarks.
var cacheShardCounts = []int{1, 2, 4, 8}

// cacheSweep drives sc against wfcache (sweeping the shard count under
// each delay variant) and the mutex LRU baseline, in the raw and
// holder-stall regimes, and tabulates throughput, hit rate, evictions
// and contention.
func cacheSweep(sc *workload.CacheScenario, s Scale, vs []Variant) (*sweep, error) {
	workers := procsAtLeast(4)
	opsPer := s.pick(200, 1000)
	sw := &sweep{
		title: fmt.Sprintf("%s: %d%%/%d%%/%d%% get/put/delete, %d keys, cap %d, skew %.1f, %d workers × %d ops",
			sc.Name, sc.GetPct, sc.PutPct, sc.DeletePct, sc.Keys, sc.Capacity, sc.Skew, workers, opsPer),
		param:  "shards",
		stalls: true,
		rate:   "ops/sec",
		cols:   []string{"hit%", "evict", "success", "attempts/op", "balance"},
		obs:    true,
		notes: []string{
			"adaptive rows use WithUnknownBounds delays that track point contention (the recommended default); known rows pay the fixed c·κ²L²T delays",
			"raw regime: the mutex LRU wins on constant factors — contended wfcache attempts still pay their regime's delays",
			fmt.Sprintf("stall regime: holders stall mid-critical-section (%v every %d value writes); helpers absorb wfcache's stalls, the mutex serializes them", workload.StallDur, workload.StallPeriod),
			fmt.Sprintf("hit%% counts Get outcomes; the cache holds %d of %d keys, so hit rate is emergent from skew and recency", sc.Capacity, sc.Keys)},
	}
	for _, v := range vs {
		for _, shards := range cacheShardCounts {
			sw.rows = append(sw.rows, row{"wfcache/" + string(v), fmt.Sprint(shards), func(sp *workload.StallPoint) (*run, error) {
				return wfcacheRun(sc, v, shards, workers, opsPer, sp)
			}})
		}
	}
	sw.rows = append(sw.rows, row{"mutexlru", "1", func(sp *workload.StallPoint) (*run, error) {
		return mutexLRURun(sc, workers, opsPer, sp), nil
	}})
	return sw, nil
}

// cacheWork is a cache row's per-goroutine share of the timed run:
// opsPer ops drawn from the goroutine's own stream. Gets are
// read-through: a miss computes (free here) and installs the value.
func cacheWork(sc *workload.CacheScenario, opsPer int, get func(k uint64), put func(k, v uint64), del func(k uint64)) func(int) error {
	return func(w int) error {
		st := workload.NewCacheOpStream(sc, workerSeed(w))
		for i := 0; i < opsPer; i++ {
			kind, key := st.Next()
			k := uint64(key)
			switch kind {
			case workload.CacheGet:
				get(k)
			case workload.CachePut:
				put(k, k*3)
			case workload.CacheDelete:
				del(k)
			}
		}
		return nil
	}
}

// cacheCols renders a cache row's columns from its counter deltas.
func cacheCols(t *tally, hits, misses, evictions uint64, balance string) []string {
	hitPct := 0.0
	if hits+misses > 0 {
		hitPct = 100 * float64(hits) / float64(hits+misses)
	}
	return []string{fmt.Sprintf("%.1f", hitPct), fmt.Sprint(evictions),
		t.success(), t.attemptsPer(t.ops), balance}
}

// wfcacheRun builds one wfcache configuration under one delay variant,
// prefilled with the head of the keyspace (the zipf-hot ranks) so the
// run starts from a warm cache.
func wfcacheRun(sc *workload.CacheScenario, v Variant, shards, workers, opsPer int, sp *workload.StallPoint) (*run, error) {
	// CacheCriticalSteps pow2-rounds its per-shard argument exactly as
	// the constructor does, so the raw quotient is the right input.
	perShard := (sc.Capacity + shards - 1) / shards
	m, err := NewManager(v, workers, 1, wflocks.CacheCriticalSteps(perShard, 1, 1), wflocks.WithMetrics())
	if err != nil {
		return nil, err
	}
	cache, err := wflocks.NewCacheOf[uint64, uint64](m, wflocks.IntegerCodec[uint64](), StallValueCodec(sp),
		wflocks.WithCacheShards(shards), wflocks.WithCapacity(sc.Capacity))
	if err != nil {
		return nil, err
	}
	for k := 0; k < sc.Capacity; k++ {
		cache.Put(uint64(k), uint64(k)*3)
	}
	base := cache.Stats()
	return &run{
		mgrs:    []*wflocks.Manager{m},
		workers: workers,
		ops:     workers * opsPer,
		work: cacheWork(sc, opsPer,
			func(k uint64) { cache.GetOrCompute(k, func() uint64 { return k * 3 }) },
			func(k, v uint64) { cache.Put(k, v) },
			func(k uint64) { cache.Delete(k) }),
		cols: func(t *tally) []string {
			cs := cache.Stats()
			return cacheCols(t, cs.Hits-base.Hits, cs.Misses-base.Misses, cs.Evictions-base.Evictions,
				fmt.Sprintf("%.3f", cs.Balance))
		},
	}, nil
}

// mutexLRURun builds the baseline. It has one lock, so the balance
// column does not apply.
func mutexLRURun(sc *workload.CacheScenario, workers, opsPer int, sp *workload.StallPoint) *run {
	c := NewMutexLRU(sc.Capacity, sp)
	for k := 0; k < sc.Capacity; k++ {
		c.Put(uint64(k), uint64(k)*3)
	}
	h0, m0, e0 := c.Counters()
	return &run{
		workers: workers,
		ops:     workers * opsPer,
		work: cacheWork(sc, opsPer,
			func(k uint64) {
				if _, ok := c.Get(k); !ok {
					c.Put(k, k*3)
				}
			},
			c.Put,
			func(k uint64) { c.Delete(k) }),
		cols: func(t *tally) []string {
			hits, misses, evictions := c.Counters()
			return cacheCols(t, hits-h0, misses-m0, evictions-e0, "-")
		},
	}
}
