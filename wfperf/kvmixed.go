package main

import (
	"fmt"
	"os"
	"sync/atomic"

	"wflocks"
)

// kv-mixed: a closed loop of single-key Map ops, 60% Get / 30% Put /
// 10% Update(+1), over Zipf-distributed keys with no stalls. Keys below
// kvUpdateKeys only ever receive Updates (so their sum must equal the
// Updates that succeeded); the rest only receive Puts whose values
// encode their key.
const (
	kvShards     = 16
	kvShardCap   = 256
	kvKeys       = 2048
	kvUpdateKeys = 512
	kvZipf       = 0.99
	kvStreamOps  = 1 << 16
	kvEpisodeOps = 25_000
)

const (
	kvGet = iota
	kvPut
	kvUpdate
)

var kvMixed = &workload{
	name:     "kv-mixed",
	lane:     "worker",
	classes:  []string{"map.get", "map.put", "map.update"},
	prepare:  prepareKV,
	overhead: closedOverhead,
}

type kvOp struct {
	kind uint8
	key  uint64
}

// kvRun holds a run's generated op streams, one per worker.
type kvRun struct {
	in      *inputs
	streams [][]kvOp
	cursors []cursor
}

func prepareKV(in *inputs) factory {
	r := newRand(in.seed, 0)
	upd := newZipf(r, kvUpdateKeys, kvZipf)
	put := newZipf(r, kvKeys-kvUpdateKeys, kvZipf)
	get := newZipf(r, kvKeys, kvZipf)
	run := &kvRun{in: in, cursors: make([]cursor, in.workers)}
	for w := range in.workers {
		wr := newRand(in.seed, uint64(w)+1)
		ops := make([]kvOp, kvStreamOps)
		for i := range ops {
			switch p := wr.IntN(10); {
			case p < 6:
				ops[i] = kvOp{kvGet, get.draw(wr)}
			case p < 9:
				ops[i] = kvOp{kvPut, kvUpdateKeys + put.draw(wr)}
			default:
				ops[i] = kvOp{kvUpdate, upd.draw(wr)}
			}
		}
		run.streams = append(run.streams, ops)
	}
	return run
}

// kvValue encodes the key in a Put value's high half.
func kvValue(k, seq uint64) uint64 { return k<<32 | seq&0xffffffff }

func kvIncr(old uint64, _ bool) (uint64, bool) { return old + 1, true }

type kvEpisode struct {
	in      *kvRun
	m       *wflocks.Manager
	mp      *wflocks.Map[uint64, uint64]
	traced  bool
	updates []counter // successful Updates per worker
}

func (run *kvRun) setup(traced bool) (episode, error) {
	opts := []wflocks.Option{
		wflocks.WithUnknownBounds(run.in.workers + 2),
		wflocks.WithMaxLocks(1),
		wflocks.WithMaxCriticalSteps(wflocks.MapCriticalSteps(kvShardCap, 1, 1)),
		wflocks.WithSeed(run.in.seed),
	}
	if traced {
		opts = append(opts, wflocks.WithTracing(traceSample))
	}
	m, err := wflocks.New(opts...)
	if err != nil {
		return nil, err
	}
	mp, err := wflocks.NewMap[uint64, uint64](m, wflocks.WithShards(kvShards), wflocks.WithShardCapacity(kvShardCap))
	if err != nil {
		return nil, err
	}
	for k := uint64(0); k < kvKeys; k++ {
		v := uint64(0)
		if k >= kvUpdateKeys {
			v = kvValue(k, 0)
		}
		if err := mp.Put(k, v); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	return &kvEpisode{in: run, m: m, mp: mp, traced: traced, updates: make([]counter, run.in.workers)}, nil
}

func (e *kvEpisode) run(stop *atomic.Bool) []*tally {
	return closedLoop(len(e.updates), kvEpisodeOps/len(e.updates), kvMixed.classes, e.traced, stop, func(w int) func() (int, bool) {
		ops, cur, updates := e.in.streams[w], &e.in.cursors[w], &e.updates[w]
		return func() (int, bool) {
			i := cur.next
			cur.next = (i + 1) % len(ops)
			o := ops[i]
			switch o.kind {
			case kvGet:
				v, ok := e.mp.Get(o.key)
				if o.key >= kvUpdateKeys {
					ok = ok && v>>32 == o.key
				}
				return kvGet, ok
			case kvPut:
				return kvPut, e.mp.Put(o.key, kvValue(o.key, uint64(i))) == nil
			default:
				if e.mp.Update(o.key, kvIncr) != nil {
					return kvUpdate, false
				}
				updates.n++
				return kvUpdate, true
			}
		}
	})
}

// audit checks that the Update-only keys sum to the Updates that
// succeeded and that every Put key holds a value encoding that key.
func (e *kvEpisode) audit(fault bool) uint64 {
	if fault {
		e.mp.Update(0, kvIncr)
	}
	misses := uint64(0)
	want := uint64(0)
	for _, u := range e.updates {
		want += u.n
	}
	sum := uint64(0)
	for k := uint64(0); k < kvKeys; k++ {
		v, ok := e.mp.Get(k)
		switch {
		case !ok:
			misses++
		case k < kvUpdateKeys:
			sum += v
		case v>>32 != k:
			misses++
		}
	}
	if sum != want {
		fmt.Fprintf(os.Stderr, "wfperf: kv-mixed audit: update keys sum to %d, want %d\n", sum, want)
		misses++
	}
	return misses
}

func (e *kvEpisode) manager() *wflocks.Manager { return e.m }

func (e *kvEpisode) layers(l ledger, _ []*tally) []traceEvent {
	tableLayers(l, mapShards(e.mp))
	return nil
}

func (e *kvEpisode) close() error { return nil }
