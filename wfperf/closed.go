package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs one goroutine per worker, each issuing its next op
// only when the previous one returned, until it has issued ops ops or
// stop is set. An episode is a fixed amount of work rather than a fixed
// time, so the memory it leaves behind does not depend on how fast it
// ran. newWorker builds worker w's op function, which performs one op
// and reports its class and whether it succeeded. One clock read per op
// times it: an op's start is the previous op's end, so the figure
// includes the loop's own bookkeeping (a few ns).
func closedLoop(workers, ops int, classes []string, traced bool, stop *atomic.Bool,
	newWorker func(w int) func() (class int, ok bool)) []*tally {
	ts := make([]*tally, workers)
	var wg sync.WaitGroup
	for w := range workers {
		ts[w] = newTally(len(classes))
		op := newWorker(w)
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			prev := time.Now()
			for {
				c, ok := op()
				now := time.Now()
				t.lat[c].add(now.Sub(prev))
				if traced {
					t.spans.add(span{Name: classes[c], Start: prev.UnixNano(), End: now.UnixNano()})
				}
				t.ops++
				if !ok {
					t.failed++
				}
				prev = now
				if t.ops == uint64(ops) || (t.ops%64 == 0 && stop.Load()) {
					return
				}
			}
		}(ts[w])
	}
	wg.Wait()
	return ts
}

// counter is a per-worker count on its own cache line.
type counter struct {
	n uint64
	_ [56]byte
}

// cursor walks a worker's pre-generated op stream, wrapping at its end;
// it persists across episodes so the whole run replays one sequence.
type cursor struct {
	next int
	_    [56]byte // keep workers' cursors on separate cache lines
}
