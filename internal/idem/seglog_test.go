package idem

import (
	"fmt"
	"sync"
	"testing"

	"wflocks/internal/env"
	"wflocks/internal/sched"
)

// segBody returns a 64-operation body that crosses the inline head and
// at least two overflow segments: 21 rounds of read, write and CAS on
// one counter, then a final read. Each run records the responses it
// saw in seen[pid], so runs can be compared.
func segBody(ctr *Cell, seen [][]uint64) Body {
	return func(r *Run) {
		var got []uint64
		for k := 0; k < 21; k++ {
			v := r.Read(ctr)
			r.Write(ctr, v+1)
			ok := uint64(0)
			if r.CAS(ctr, v+1, v+2) {
				ok = 1
			}
			got = append(got, v, ok)
		}
		got = append(got, r.Read(ctr))
		seen[r.Env().Pid()] = got
	}
}

const segBodyOps = 64

// checkSegRuns verifies a segBody execution: the counter moved by
// exactly one run's worth, and every run saw the canonical responses
// of one sequential run.
func checkSegRuns(t *testing.T, ctr *Cell, seen [][]uint64) {
	t.Helper()
	if segBodyOps < headSlots+2*segSlots {
		t.Fatalf("body of %d ops does not reach a second segment", segBodyOps)
	}
	if got := ctr.Load(env.NewNative(99, 1)); got != 42 {
		t.Fatalf("counter = %d, want 42 (effects applied more than once?)", got)
	}
	var want []uint64
	for k := uint64(0); k < 21; k++ {
		want = append(want, 2*k, 1)
	}
	want = append(want, 42)
	for pid, got := range seen {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d saw %v, want %v", pid, got, want)
		}
	}
}

// TestSegmentedLogConcurrentHelpers runs a body spanning the head and
// several segments on 8 helpers at once, both under random simulated
// schedules and on real goroutines (where -race checks the segment
// install protocol).
func TestSegmentedLogConcurrentHelpers(t *testing.T) {
	const helpers = 8
	for seed := uint64(1); seed <= 20; seed++ {
		ctr := NewCell(0)
		seen := make([][]uint64, helpers)
		x := NewExec(segBody(ctr, seen), segBodyOps)
		sim := sched.New(sched.NewRandom(helpers, seed), seed)
		for i := 0; i < helpers; i++ {
			sim.Spawn(func(e env.Env) { x.Execute(e) })
		}
		if err := sim.Run(20_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkSegRuns(t, ctr, seen)
	}
	for round := 0; round < 20; round++ {
		ctr := NewCell(0)
		seen := make([][]uint64, helpers)
		x := NewExec(segBody(ctr, seen), segBodyOps)
		var wg sync.WaitGroup
		for i := 0; i < helpers; i++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				x.Execute(env.NewNative(pid, uint64(round)))
			}(i)
		}
		wg.Wait()
		checkSegRuns(t, ctr, seen)
	}
}

// TestSegmentInstallRaceAdoptsWinner preempts two runs between loading
// a nil segment link and installing their own segment: the schedule
// 0,1,0,1,0,1 starts both runs, then gives each its load step, then
// each its CAS step. The first CAS wins; the second must drop its
// segment and adopt the winner's, so both runs hand out the same slot.
// Checked for the head's link and for a segment's next link.
func TestSegmentInstallRaceAdoptsWinner(t *testing.T) {
	x := NewExec(func(*Run) {}, headSlots+2*segSlots)
	for _, next := range []int{headSlots, headSlots + segSlots} {
		var seg *logSeg
		if next > headSlots {
			seg = x.overflow.Load()
		}
		var runs [2]*Run
		sim := sched.New(&sched.Trace{Pids: []int{0, 1, 0, 1, 0, 1}, N: 2}, 1)
		for pid := range runs {
			sim.Spawn(func(e env.Env) {
				r := &Run{e: e, x: x, next: next, seg: seg}
				runs[pid] = r
				r.slot()
			})
		}
		if err := sim.Run(100); err != nil {
			t.Fatal(err)
		}
		for pid := range runs {
			if got := sim.ProcSteps(pid); got != 3 {
				t.Fatalf("op %d: run %d took %d steps, want 3 (start, load, CAS)", next, pid, got)
			}
		}
		link := &x.overflow
		if seg != nil {
			link = &seg.next
		}
		installed := link.Load()
		if installed == nil {
			t.Fatalf("op %d: no segment installed", next)
		}
		for pid, r := range runs {
			if r.seg != installed {
				t.Fatalf("op %d: run %d is on segment %p, installed is %p", next, pid, r.seg, installed)
			}
		}
		if installed.next.Load() != nil {
			t.Fatalf("op %d: a dropped segment was linked", next)
		}
	}
}
