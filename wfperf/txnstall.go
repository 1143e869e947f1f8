package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"wflocks"
)

// txn-stall: a closed loop of 80% two-key Map.Atomic transfers and 20%
// Gets over uniformly drawn accounts, with holders stalled inside the
// critical section: values go through a codec whose Encode sleeps on a
// rare schedule drawn from the seed. The schedule is armed only after
// set-up, so the stalls belong to the measured run.
const (
	txnShards      = 8
	txnShardCap    = 256
	txnAccounts    = 1024
	txnInitial     = 1000
	txnStallPeriod = 512 // one encode in this many stalls, on average
	txnStallDur    = time.Millisecond
	txnStreamOps   = 1 << 16
	txnEpisodeOps  = 20_000
)

const (
	txnGet = iota
	txnAtomic
)

var txnStall = &workload{
	name:     "txn-stall",
	lane:     "worker",
	classes:  []string{"map.get", "txn.atomic"},
	prepare:  prepareTxn,
	overhead: closedOverhead,
}

type txnOp struct {
	kind     uint8
	from, to uint64
}

type txnRun struct {
	in      *inputs
	streams [][]txnOp
	cursors []cursor
	sched   stallSchedule
}

func prepareTxn(in *inputs) factory {
	run := &txnRun{in: in, cursors: make([]cursor, in.workers), sched: stallSchedule{seed: in.seed}}
	for w := range in.workers {
		r := newRand(in.seed, uint64(w)+1)
		ops := make([]txnOp, txnStreamOps)
		for i := range ops {
			from := r.Uint64N(txnAccounts)
			to := (from + 1 + r.Uint64N(txnAccounts-1)) % txnAccounts
			kind := uint8(txnAtomic)
			if r.IntN(10) < 2 {
				kind = txnGet
			}
			ops[i] = txnOp{kind, from, to}
		}
		run.streams = append(run.streams, ops)
	}
	return run
}

// stallSchedule decides which value encodes sleep: of each block of
// txnStallPeriod consecutive encodes exactly one stalls, at an offset
// drawn from a hash of (seed, block). The stall count is fixed by the
// work done and only the positions come from the seed. Helpers
// re-executing a stalled body draw too, as a preempted process would be
// preempted wherever it runs. The counter persists across episodes, so
// a run follows one schedule.
type stallSchedule struct {
	seed  uint64
	armed atomic.Bool
	n     atomic.Uint64
}

func (s *stallSchedule) draw() {
	if !s.armed.Load() {
		return
	}
	n := s.n.Add(1)
	if n%txnStallPeriod == mix64(s.seed^n/txnStallPeriod)%txnStallPeriod {
		time.Sleep(txnStallDur)
	}
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

type txnEpisode struct {
	in     *txnRun
	m      *wflocks.Manager
	mp     *wflocks.Map[uint64, uint64]
	sched  *stallSchedule
	traced bool
}

func (run *txnRun) setup(traced bool) (episode, error) {
	opts := []wflocks.Option{
		wflocks.WithUnknownBounds(run.in.workers + 2),
		wflocks.WithMaxLocks(2),
		wflocks.WithMaxCriticalSteps(wflocks.MapAtomicSteps(txnShardCap, 1, 1, 2)),
		wflocks.WithSeed(run.in.seed),
	}
	if traced {
		opts = append(opts, wflocks.WithTracing(traceSample))
	}
	m, err := wflocks.New(opts...)
	if err != nil {
		return nil, err
	}
	sched := &run.sched
	vc := wflocks.CodecFunc(1,
		func(v uint64, dst []uint64) {
			sched.draw()
			dst[0] = v
		},
		func(src []uint64) uint64 { return src[0] })
	mp, err := wflocks.NewMapOf[uint64, uint64](m, wflocks.IntegerCodec[uint64](), vc,
		wflocks.WithShards(txnShards), wflocks.WithShardCapacity(txnShardCap))
	if err != nil {
		return nil, err
	}
	for k := uint64(0); k < txnAccounts; k++ {
		if err := mp.Put(k, txnInitial); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	sched.armed.Store(true)
	return &txnEpisode{in: run, m: m, mp: mp, sched: sched, traced: traced}, nil
}

// transfer moves one unit between the transaction's two accounts when
// the first can pay. It reads only tx.Keys(): helpers may re-execute a
// stalled body after the caller has moved on.
func transfer(tx *wflocks.MapTxn[uint64, uint64]) {
	ks := tx.Keys()
	from, _ := tx.Get(ks[0])
	if from == 0 {
		return
	}
	to, _ := tx.Get(ks[1])
	tx.Put(ks[0], from-1)
	tx.Put(ks[1], to+1)
}

func (e *txnEpisode) run(stop *atomic.Bool) []*tally {
	return closedLoop(len(e.in.streams), txnEpisodeOps/len(e.in.streams), txnStall.classes, e.traced, stop, func(w int) func() (int, bool) {
		ops, cur := e.in.streams[w], &e.in.cursors[w]
		keys := make([]uint64, 2)
		return func() (int, bool) {
			i := cur.next
			cur.next = (i + 1) % len(ops)
			o := ops[i]
			if o.kind == txnGet {
				v, ok := e.mp.Get(o.from)
				return txnGet, ok && v <= txnAccounts*txnInitial
			}
			keys[0], keys[1] = o.from, o.to
			return txnAtomic, e.mp.Atomic(keys, transfer) == nil
		}
	})
}

// audit checks that the transfers conserved the total balance and left
// no account negative (a wrapped uint64 reads as more than the total).
func (e *txnEpisode) audit(fault bool) uint64 {
	e.sched.armed.Store(false)
	if fault {
		v, _ := e.mp.Get(0)
		e.mp.Put(0, v+1)
	}
	misses := uint64(0)
	sum := uint64(0)
	for k := uint64(0); k < txnAccounts; k++ {
		v, ok := e.mp.Get(k)
		if !ok || v > txnAccounts*txnInitial {
			misses++
			continue
		}
		sum += v
	}
	if sum != txnAccounts*txnInitial {
		fmt.Fprintf(os.Stderr, "wfperf: txn-stall audit: balances sum to %d, want %d\n", sum, txnAccounts*txnInitial)
		misses++
	}
	return misses
}

func (e *txnEpisode) manager() *wflocks.Manager { return e.m }

func (e *txnEpisode) layers(l ledger, _ []*tally) []traceEvent {
	tableLayers(l, mapShards(e.mp))
	return nil
}

func (e *txnEpisode) close() error { return nil }
