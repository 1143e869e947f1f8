// Pipeline: a multi-stage streaming pipeline on wfqueue.
//
// Items flow produce → square → sum through two WorkPools. Each stage
// runs a small pool of goroutines; the queues between stages are
// sharded relaxed-FIFO pools, so producers spread across shard locks
// and a consumer whose home shard runs dry pops another shard's work,
// stealing a batch on the two-lock path (L = 2) when there is a
// backlog. No stage can wedge another: a worker preempted
// mid-enqueue or mid-dequeue is helped by its competitors, which is
// the property that keeps a pipeline's throughput smooth when stages
// stall unevenly.
//
// The demo moves 1000 numbers, squares them, and checks the aggregate
// against the closed form — relaxed FIFO reorders freely, but every
// element goes through exactly once.
//
// Run with: go run ./examples/pipeline
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wflocks"
)

const (
	items     = 1000
	stageSize = 3 // goroutines per stage
)

func main() {
	os.Exit(run())
}

func run() int {
	m, err := wflocks.New(
		// Point contention per shard lock is low and varies with the
		// steal pattern; let the Section 6.2 adaptive variant track it
		// instead of fixing a worst-case κ. P bounds the goroutines.
		wflocks.WithUnknownBounds(3*stageSize+2),
		wflocks.WithMaxLocks(2), // stealing locks two shards at once
		wflocks.WithMaxCriticalSteps(wflocks.WorkPoolCriticalSteps(1, 8)),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		return 1
	}

	newStage := func() *wflocks.WorkPool[uint64] {
		wp, err := wflocks.NewWorkPool[uint64](m,
			wflocks.WithPoolShards(4), wflocks.WithPoolCapacity(64))
		if err != nil {
			fmt.Fprintln(os.Stderr, "pipeline:", err)
			os.Exit(1)
		}
		return wp
	}
	raw, squared := newStage(), newStage()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	var produced, transformed, total atomic.Uint64

	// Stage 1: produce 1..items, round-robin across raw's shards.
	for w := 0; w < stageSize; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := produced.Add(1)
				if n > items {
					return
				}
				if err := raw.Enqueue(ctx, n); err != nil {
					fmt.Fprintln(os.Stderr, "pipeline produce:", err)
					return
				}
			}
		}()
	}

	// Stage 2: square. Dequeue blocks under the manager's RetryPolicy
	// until work arrives; the worker that moves the last item cancels
	// the stage's context so its siblings stop waiting on a queue that
	// will never refill.
	stage2Ctx, stage2Done := context.WithCancel(ctx)
	defer stage2Done()
	for w := 0; w < stageSize; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, err := raw.Dequeue(stage2Ctx)
				if err != nil {
					if !errors.Is(err, wflocks.ErrCanceled) {
						fmt.Fprintln(os.Stderr, "pipeline square:", err)
					}
					return
				}
				if err := squared.Enqueue(ctx, v*v); err != nil {
					fmt.Fprintln(os.Stderr, "pipeline square:", err)
					return
				}
				if transformed.Add(1) == items {
					stage2Done()
					return
				}
			}
		}()
	}

	// Stage 3: aggregate in batches — one lock acquisition drains up to
	// a chunk of a shard. Completion is signaled the same way.
	stage3Ctx, stage3Done := context.WithCancel(ctx)
	defer stage3Done()
	var consumed atomic.Uint64
	for w := 0; w < stageSize; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				got, err := squared.DequeueBatch(stage3Ctx, 8)
				for _, v := range got {
					total.Add(v)
				}
				if len(got) > 0 && consumed.Add(uint64(len(got))) >= items {
					stage3Done()
					return
				}
				if err != nil {
					if !errors.Is(err, wflocks.ErrCanceled) {
						fmt.Fprintln(os.Stderr, "pipeline sum:", err)
					}
					return
				}
			}
		}()
	}

	wg.Wait()
	// Σ k² for k = 1..n.
	want := uint64(items) * (items + 1) * (2*items + 1) / 6
	fmt.Printf("pipeline moved %d items; sum of squares = %d (want %d)\n", items, total.Load(), want)
	rs, ss := raw.Stats(), squared.Stats()
	fmt.Printf("stage queues: raw %d enq / %d steals, squared %d enq / %d steals\n",
		rs.Enqueues, rs.Steals, ss.Enqueues, ss.Steals)
	if total.Load() != want {
		fmt.Fprintln(os.Stderr, "pipeline: aggregate mismatch")
		return 1
	}
	return 0
}
