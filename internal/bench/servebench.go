package bench

import (
	"context"
	"fmt"
	"time"

	"wflocks/internal/serve"
	"wflocks/internal/serve/loadgen"
	"wflocks/internal/workload"
)

// Service workload runner: drives a workload.ServiceScenario through
// the full wfserve path — protocol parse, shard-by-key WorkPool
// dispatch, backend execution, ordered pipelined responses — over the
// in-process loopback transport, against the scenario's wait-free
// backend and the sharded-mutex baseline, in the raw and holder-stall
// regimes.
//
// Unlike the data-structure runners, the metric here is tail latency
// under an open-loop arrival schedule, recorded by the
// coordinated-omission-safe harness in internal/serve/loadgen: the
// percentiles include every millisecond of queueing delay a stalled
// server inflicts on the requests scheduled behind the stall. That is
// what makes the regime comparison honest — in the raw regime the
// mutex baseline's smaller constants win, and the table says so; in
// the stall regime a stalled mutex holder backs up its whole shard
// while a stalled wait-free winner is helped past, and the p99.9
// column is where that difference lives.

// serviceSweep drives sc against its wait-free backend and the
// conventional sharded-mutex design, raw and stalled, and tabulates
// open-loop latency percentiles.
func serviceSweep(sc *workload.ServiceScenario, s Scale, _ []Variant) (*sweep, error) {
	// p99.9 is the top 0.1% of samples; at quick scale it is a handful
	// of requests and only sanity-checkable. Full scale stretches the
	// window 4× so the tail the table reports rests on tens of samples
	// per cell, not single digits.
	duration := 4 * sc.Duration
	if s == Quick {
		duration = sc.Duration / 8
	}
	// Server-side workers, floored at 4 so stalled winners always have
	// runnable helpers.
	workers := procsAtLeast(4)
	sw := &sweep{
		title: fmt.Sprintf("%s: %.0f ops/s open-loop for %v, %d conns, %d workers, %d%%/%d%%/%d%% get/set/del, %d keys, skew %.1f",
			sc.Name, sc.Rate, duration, sc.Conns, workers, sc.GetPct, sc.SetPct, sc.DelPct, sc.Keys, sc.Skew),
		stalls: true,
		cols:   []string{"sent", "done", "errs", "p50", "p99", "p99.9", "max", "ops/sec"},
		notes: []string{
			"open-loop, coordinated-omission-safe: latency is measured from each request's scheduled send time, so queueing delay behind a stalled server is in the percentiles",
			"raw regime: the mutex baseline's constant factors usually win — every wait-free op pays the adaptive variant's padded delays",
			fmt.Sprintf("stall regime: every %dth backend value write sleeps %v while its lock is held; a stalled mutex holder backs up its shard, a stalled wait-free winner is helped past", workload.StallPeriod, workload.StallDur)},
	}
	for _, impl := range []string{sc.Backend, serve.BackendMutex} {
		sw.rows = append(sw.rows, row{implLabel(impl), "", func(sp *workload.StallPoint) (*run, error) {
			return serviceRun(sc, impl, duration, workers, sp)
		}})
	}
	return sw, nil
}

// implLabel names a backend for the table.
func implLabel(impl string) string {
	if impl == serve.BackendMutex {
		return "mutex-shard"
	}
	return "wf-" + impl
}

// serviceRun builds one impl × regime cell over a loopback listener
// and prefills it; its timed run is the open-loop load, and finish
// drains the server.
func serviceRun(sc *workload.ServiceScenario, impl string, duration time.Duration, workers int, sp *workload.StallPoint) (*run, error) {
	// Size the server to the scenario rather than taking the roomy
	// defaults: the wait-free manager's per-acquisition delays scale
	// with the critical-step bound T, and T is linear in per-shard
	// capacity and codec width. A 64KiB-capacity cache with 64-byte
	// keys is a fine default for a durable service, but benchmarking
	// the scenario's 1–4k keys against it would charge every operation
	// for headroom the workload never uses. Shards stays at 8, the
	// operating point the cache shard sweeps settled on: more shards
	// shrink T further but also dilute per-shard traffic until a
	// stalled holder inconveniences nobody and the regime comparison
	// measures only the self-stalled requests both designs share.
	capacity := 2 * sc.Keys
	if capacity < 256 {
		capacity = 256
	}
	cfg := serve.Config{
		Backend:     impl,
		Workers:     workers,
		Shards:      8,
		Capacity:    capacity,
		MaxConns:    sc.Conns + 2,
		MaxKeyBytes: 16,
		MaxValBytes: sc.ValBytes,
	}
	if sp != nil {
		cfg.Stall = sp.Hit
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	lis := serve.NewLoopback()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(lis) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-serveDone; err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	}

	// Prefill through the backend directly (not the wire) so the stall
	// schedule, armed after the build, belongs entirely to the measured
	// run.
	if sc.Prefill {
		val := loadgen.Val(sc.ValBytes)
		for k := 0; k < sc.Keys; k++ {
			if err := s.Backend().Set(loadgen.Key(k), val, 0); err != nil {
				_ = stop() // the prefill error is the one to report
				return nil, fmt.Errorf("prefill key %d: %w", k, err)
			}
		}
	}
	var res *loadgen.Result
	return &run{
		workers: 1,
		work: func(int) (err error) {
			ctx, cancel := context.WithTimeout(context.Background(), duration+60*time.Second)
			defer cancel()
			res, err = loadgen.Run(ctx, lis.Dial, loadgen.Config{
				Rate:      sc.Rate,
				Duration:  duration,
				Conns:     sc.Conns,
				Keys:      sc.Keys,
				Skew:      sc.Skew,
				GetPct:    sc.GetPct,
				SetPct:    sc.SetPct,
				DelPct:    sc.DelPct,
				ValBytes:  sc.ValBytes,
				SlowConns: sc.SlowConns,
				SlowDelay: sc.SlowDelay,
			})
			return err
		},
		finish: stop,
		cols: func(*tally) []string {
			return []string{
				fmt.Sprint(res.Total.Sent), fmt.Sprint(res.Total.Done), fmt.Sprint(res.Total.Errors),
				fmt.Sprint(res.Quantile(0.50).Round(time.Microsecond)),
				fmt.Sprint(res.Quantile(0.99).Round(time.Microsecond)),
				fmt.Sprint(res.Quantile(0.999).Round(time.Microsecond)),
				fmt.Sprint(time.Duration(res.Total.Hist.Max()).Round(time.Microsecond)),
				fmt.Sprintf("%.0f", res.AchievedRate),
			}
		},
	}, nil
}
