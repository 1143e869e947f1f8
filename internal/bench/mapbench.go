package bench

import (
	"fmt"
	"runtime"
	"sync"

	"wflocks"
	"wflocks/internal/env"
	"wflocks/internal/stats"
	"wflocks/internal/workload"
)

// Map workload runner: drives a workload.MapScenario against the wfmap
// subsystem and against a sync.Mutex-sharded baseline, sweeping the
// shard count. Two effects make wfmap throughput scale with shards:
// per-lock contention drops (higher per-attempt success probability),
// and the per-shard bucket region shrinks, which shortens the
// worst-case critical section T and with it the attempts' fixed
// O(κ²L²T) delays.

// mapShardCounts is the shard sweep of the map benchmarks.
var mapShardCounts = []int{1, 2, 4, 8}

// MutexMap is the blocking baseline: a sync.Mutex-sharded map with the
// same shard-selection hash as wfmap. It makes no wait-freedom or
// fairness promises — a stalled holder blocks its whole shard.
type MutexMap struct {
	shards []mutexShard
	mask   uint64
}

type mutexShard struct {
	mu sync.Mutex
	m  map[uint64]uint64
	_  [40]byte // pad to a cache line so shard mutexes do not false-share
}

// NewMutexMap creates a baseline map with the given shard count
// (rounded up to a power of two).
func NewMutexMap(shardCount int) *MutexMap {
	n := nextPow2(shardCount)
	mm := &MutexMap{shards: make([]mutexShard, n), mask: uint64(n - 1)}
	for i := range mm.shards {
		mm.shards[i].m = make(map[uint64]uint64)
	}
	return mm
}

// shardIndex uses the same SplitMix64 mixing family as wfmap's hash
// (seed 0, vs wfmap's manager-derived seed), so the two shard
// assignments are statistically equivalent but not identical; the
// balance columns in the scenario tables describe each
// implementation's own observed shard traffic.
func (mm *MutexMap) shardIndex(k uint64) uint64 {
	return env.Mix(0, k) & mm.mask
}

func (mm *MutexMap) shard(k uint64) *mutexShard {
	return &mm.shards[mm.shardIndex(k)]
}

// Get returns the value stored for k.
func (mm *MutexMap) Get(k uint64) (uint64, bool) {
	sh := mm.shard(k)
	sh.mu.Lock()
	v, ok := sh.m[k]
	sh.mu.Unlock()
	return v, ok
}

// Put stores v for k.
func (mm *MutexMap) Put(k, v uint64) {
	sh := mm.shard(k)
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}

// Delete removes k, reporting whether it was present.
func (mm *MutexMap) Delete(k uint64) bool {
	sh := mm.shard(k)
	sh.mu.Lock()
	_, ok := sh.m[k]
	delete(sh.m, k)
	sh.mu.Unlock()
	return ok
}

// Len reports the entry count.
func (mm *MutexMap) Len() int {
	n := 0
	for i := range mm.shards {
		sh := &mm.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// procsAtLeast picks a driver goroutine count: the host's parallelism,
// floored at n so small machines still see the contention a table
// measures.
func procsAtLeast(n int) int {
	return max(runtime.GOMAXPROCS(0), n)
}

// mapSweep drives sc against wfmap (under each delay variant) and the
// mutex baseline across the shard sweep, and tabulates throughput,
// per-attempt success rate and shard balance.
func mapSweep(sc *workload.MapScenario, s Scale, vs []Variant) (*sweep, error) {
	workers := procsAtLeast(4)
	opsPer := s.pick(200, 2000)
	sw := &sweep{
		title: fmt.Sprintf("%s: %d%%/%d%%/%d%% get/put/delete, %d keys, skew %.1f, %d workers × %d ops",
			sc.Name, sc.GetPct, sc.PutPct, sc.DeletePct, sc.Keys, sc.Skew, workers, opsPer),
		param: "shards",
		rate:  "ops/sec",
		cols:  []string{"success", "attempts/op", "balance", "max/mean"},
		obs:   true,
		notes: []string{
			"adaptive rows use WithUnknownBounds: delays track point contention (the recommended default); known rows pay the fixed c·κ²L²T delays",
			"uncontended attempts skip delays entirely via the fast path in both regimes; sharding shrinks both κ per lock and T",
			"balance is Jain's index over per-shard lock attempts (1.0 = even traffic)"},
	}
	for _, v := range vs {
		for _, shards := range mapShardCounts {
			sw.rows = append(sw.rows, row{"wfmap/" + string(v), fmt.Sprint(shards), func(*workload.StallPoint) (*run, error) {
				return wfmapRun(sc, v, shards, workers, opsPer)
			}})
		}
	}
	for _, shards := range mapShardCounts {
		sw.rows = append(sw.rows, row{"mutex", fmt.Sprint(shards), func(*workload.StallPoint) (*run, error) {
			return mutexMapRun(sc, shards, workers, opsPer), nil
		}})
	}
	return sw, nil
}

// mapWork is a map row's per-goroutine share of the timed run: opsPer
// ops drawn from the goroutine's own stream, applied by op.
func mapWork(sc *workload.MapScenario, opsPer int, op func(w, i int, kind workload.MapOpKind, k uint64)) func(int) error {
	return func(w int) error {
		st := workload.NewMapOpStream(sc, workerSeed(w))
		for i := 0; i < opsPer; i++ {
			kind, key := st.Next()
			op(w, i, kind, uint64(key))
		}
		return nil
	}
}

// wfmapRun builds one wfmap configuration under one delay variant.
func wfmapRun(sc *workload.MapScenario, v Variant, shards, workers, opsPer int) (*run, error) {
	// Fixed total capacity 2× the keyspace, split across shards, so the
	// sweep holds the aggregate structure constant while the per-shard
	// region (and hence T) shrinks as shards grow.
	capPerShard := nextPow2(2 * sc.Keys / shards)
	m, err := NewManager(v, workers, 1, wflocks.MapCriticalSteps(capPerShard, 1, 1), wflocks.WithMetrics())
	if err != nil {
		return nil, err
	}
	mp, err := wflocks.NewMap[uint64, uint64](m,
		wflocks.WithShards(shards), wflocks.WithShardCapacity(capPerShard))
	if err != nil {
		return nil, err
	}
	for k := 0; k < sc.Keys/2; k++ {
		if err := mp.Put(uint64(k), uint64(k)); err != nil {
			return nil, err
		}
	}
	return &run{
		mgrs:    []*wflocks.Manager{m},
		workers: workers,
		ops:     workers * opsPer,
		work: mapWork(sc, opsPer, func(_, i int, kind workload.MapOpKind, k uint64) {
			switch kind {
			case workload.MapGet:
				mp.Get(k)
			case workload.MapPut:
				// ErrMapFull is impossible by construction (capacity 2×
				// keyspace) short of extreme hash skew; treat it as a
				// dropped op rather than failing the run.
				_ = mp.Put(k, uint64(i))
			case workload.MapDelete:
				mp.Delete(k)
			}
		}),
		cols: func(t *tally) []string {
			ms := mp.Stats()
			return []string{t.success(), t.attemptsPer(t.ops),
				fmt.Sprintf("%.3f", ms.Balance), fmt.Sprintf("%.2f", ms.MaxOverMean)}
		},
	}, nil
}

// mutexMapRun builds one baseline configuration. sync.Mutex keeps no
// contention counters, so balance is over the shards' op counts.
func mutexMapRun(sc *workload.MapScenario, shards, workers, opsPer int) *run {
	mm := NewMutexMap(shards)
	for k := 0; k < sc.Keys/2; k++ {
		mm.Put(uint64(k), uint64(k))
	}
	perShardOps := make([][]uint64, workers)
	for w := range perShardOps {
		perShardOps[w] = make([]uint64, len(mm.shards))
	}
	return &run{
		workers: workers,
		ops:     workers * opsPer,
		work: mapWork(sc, opsPer, func(w, i int, kind workload.MapOpKind, k uint64) {
			perShardOps[w][mm.shardIndex(k)]++
			switch kind {
			case workload.MapGet:
				mm.Get(k)
			case workload.MapPut:
				mm.Put(k, uint64(i))
			case workload.MapDelete:
				mm.Delete(k)
			}
		}),
		cols: func(t *tally) []string {
			counts := make([]uint64, len(mm.shards))
			for _, per := range perShardOps {
				for s, c := range per {
					counts[s] += c
				}
			}
			d := stats.NewShardDist(counts)
			return []string{t.success(), t.attemptsPer(t.ops),
				fmt.Sprintf("%.3f", d.Jain), fmt.Sprintf("%.2f", d.MaxOverMean)}
		},
	}
}

// nextPow2 rounds n up to a power of two, minimum 1.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
