package main

import (
	"runtime"
	"runtime/metrics"

	"wflocks"
	"wflocks/internal/serve"
)

// traceSample is the share of lock attempts a traced episode's flight
// recorder samples: one in traceSample.
const traceSample = 64

// ledger holds one traced episode's per-layer figures by metric name.
type ledger map[string]float64

// layerMetrics is the per-layer ledger a traced run prints, in the
// order of BENCHMARK.json's per_layer list. A layer a workload does not
// call reports 0 (no calls, no time).
var layerMetrics = []struct{ name, unit string }{
	{"map.get_ns_p50", "ns"}, {"map.get_ns_p999", "ns"},
	{"map.put_ns_p50", "ns"}, {"map.put_ns_p999", "ns"},
	{"map.update_ns_p50", "ns"}, {"map.update_ns_p999", "ns"},
	{"txn.atomic_ns_p50", "ns"}, {"txn.atomic_ns_p99", "ns"}, {"txn.atomic_ns_p999", "ns"},
	{"core.attempts_per_op", "count"}, {"core.win_ratio", "ratio"},
	{"core.min_lock_win_ratio", "ratio"}, {"core.fast_path_share", "ratio"},
	{"core.helps_per_op", "count"}, {"core.delay_share", "ratio"},
	{"core.steps_per_attempt", "count"},
	{"core.acquire_ns_p50", "ns"}, {"core.acquire_ns_p99", "ns"}, {"core.help_run_ns_p99", "ns"},
	{"table.mean_probe", "count"}, {"table.max_probe", "count"}, {"table.tombstone_share", "ratio"},
	{"arena.alloc_bytes_per_op", "B"}, {"arena.allocs_per_op", "count"},
	{"arena.retained_bytes_per_op", "B"}, {"arena.gc_cpu_share", "ratio"}, {"arena.gc_cycles", "count"},
	{"serve.admit_ns_p50", "ns"}, {"serve.admit_ns_p99", "ns"},
	{"serve.queue_wait_ns_p50", "ns"}, {"serve.queue_wait_ns_p99", "ns"},
	{"serve.execute_ns_p50", "ns"}, {"serve.execute_ns_p99", "ns"},
	{"serve.write_ns_p50", "ns"}, {"serve.write_ns_p99", "ns"},
	{"serve.wire_ns_p50", "ns"},
	{"cache.hit_ratio", "ratio"}, {"workpool.steals_per_op", "count"},
	{"log.appends_per_op", "count"}, {"log.dropped_share", "ratio"},
	{"client.lateness_us_p99", "us"}, {"client.sent", "count"}, {"client.max_rate_ops", "1/s"},
	{"trace.overhead_ratio", "ratio"},
}

// runtimeSamples are the runtime/metrics the arena layer reads.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// snapshot is the counter state at one edge of a traced episode.
type snapshot struct {
	stats wflocks.StatsSnapshot
	obs   wflocks.ObsSnapshot
	rt    []float64
	live  uint64 // live heap after a forced GC
}

// takeSnapshot reads the manager's counters and the runtime's. At the
// start edge it first forces a GC, so live is the heap the set-up left.
func takeSnapshot(m *wflocks.Manager, start bool) snapshot {
	var s snapshot
	if start {
		s.live = liveHeap()
	}
	s.stats, s.obs = m.Stats(), m.Observe()
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.rt = make([]float64, len(ms))
	for i, m := range ms {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			s.rt[i] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			s.rt[i] = m.Value.Float64()
		}
	}
	return s
}

// liveHeap forces a GC and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ledger fills l with the core and arena layers' figures for the
// interval from s to end, over ops operations.
func (s snapshot) ledger(l ledger, end snapshot, ops uint64) {
	perOp := func(x float64) float64 { return x / float64(max(ops, 1)) }
	d := end.stats.Sub(s.stats)
	attempts := float64(d.Attempts)
	l["core.attempts_per_op"] = perOp(attempts)
	l["core.helps_per_op"] = perOp(float64(d.Helps))
	if attempts > 0 {
		l["core.win_ratio"] = float64(d.Wins) / attempts
		l["core.fast_path_share"] = float64(d.FastPath) / attempts
	}
	// The paper bounds each lock's per-attempt win chance below; the
	// worst lock is the figure to hold against it. Locks with too few
	// attempts for a ratio are skipped.
	minWin := -1.0
	for _, lk := range d.Locks {
		if lk.Attempts < 20 {
			continue
		}
		if r := float64(lk.Wins) / float64(lk.Attempts); minWin < 0 || r < minWin {
			minWin = r
		}
	}
	l["core.min_lock_win_ratio"] = max(minWin, 0)

	o := end.obs.Sub(s.obs)
	l["core.delay_share"] = o.DelayShare()
	if attempts > 0 {
		l["core.steps_per_attempt"] = float64(o.AttemptSteps) / attempts
	}
	l["core.acquire_ns_p50"] = float64(o.Acquire.Quantile(0.50))
	l["core.acquire_ns_p99"] = float64(o.Acquire.Quantile(0.99))
	l["core.help_run_ns_p99"] = float64(o.HelpRun.Quantile(0.99))

	rt := func(i int) float64 { return end.rt[i] - s.rt[i] }
	l["arena.alloc_bytes_per_op"] = perOp(rt(0))
	l["arena.allocs_per_op"] = perOp(rt(1))
	l["arena.gc_cycles"] = rt(2)
	if cpu := rt(4); cpu > 0 {
		l["arena.gc_cpu_share"] = rt(3) / cpu
	}
	l["arena.retained_bytes_per_op"] = perOp(float64(end.live) - float64(s.live))
}

// tableLayers fills the table layer's figures from per-shard occupancy.
func tableLayers(l ledger, shards []serve.TableShardInfo) {
	size, sum, tomb, capacity, maxProbe := 0, 0, 0, 0, 0
	for _, sh := range shards {
		size += sh.Size
		sum += sh.SumProbe
		tomb += sh.Tombstones
		capacity += sh.Capacity
		maxProbe = max(maxProbe, sh.MaxProbe)
	}
	if size > 0 {
		l["table.mean_probe"] = float64(sum) / float64(size)
	}
	l["table.max_probe"] = float64(maxProbe)
	if capacity > 0 {
		l["table.tombstone_share"] = float64(tomb) / float64(capacity)
	}
}

// mapShards is a map's per-shard occupancy in the form the serve
// backends report it.
func mapShards(mp *wflocks.Map[uint64, uint64]) []serve.TableShardInfo {
	st := mp.Stats()
	out := make([]serve.TableShardInfo, len(st.Shards))
	for i, sh := range st.Shards {
		out[i] = serve.TableShardInfo{Size: sh.Size, Capacity: mp.ShardCapacity(),
			Tombstones: sh.Tombstones, MaxProbe: sh.MaxProbe, SumProbe: sh.SumProbe}
	}
	return out
}
