package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wflocks"
	"wflocks/internal/workload"
)

// Log workload runner: drives a workload.LogScenario against the wflog
// subsystem (sweeping the shard count) and against two baselines — a
// mutex-guarded slice log with per-consumer positions and a
// channel-fan-out broadcaster — in the raw and holder-stall regimes.
//
// Broadcast delivery changes what a stall costs. In the mutex+slice
// design one lock guards the entries and every consumer position, so a
// producer stalled mid-append holds up every subscriber for the stall.
// The channel fan-out moves the serialization into the broadcaster
// goroutine: a stall there — or one slow subscriber filling its buffer
// — head-of-line blocks the whole fan-out. wflog's stalled appender is
// helped past its critical section, so the stall costs only the
// stalled goroutine and (with shards > 1) disturbs only its shard.
//
// Stalls are injected symmetrically on the value-write path, on both
// sides of the log: wflog routes values through StallValueCodec, whose
// Encode draws inside the append critical section (slot write) and
// inside the cursor-advance section (result-cell write, mirroring
// wfqueue's dequeues); the mutex log draws while holding its mutex
// whenever it touches an entry's value, on append and on read; the
// channel log draws in the broadcaster per forwarded entry and in each
// reader beside its receive (a goroutine cannot sleep holding the
// runtime's channel lock — the channel is the stall-tolerant shape,
// exactly as in the queue tables).
//
// Every run audits prefix consistency: each consumer must see every
// producer's entries gaplessly in per-producer order (keyed appends
// pin a producer to one shard, so the order is a delivery guarantee,
// not a scheduling accident).

// logShardCounts is the wflog shard sweep; aggregate capacity is held
// constant while per-shard contention shrinks.
var logShardCounts = []int{1, 2, 4, 8}

// laggardEvery/laggardNap is the lagging-consumer schedule: a laggard
// sleeps for laggardNap every laggardEvery reads, stretching retention
// behind it without ever stopping.
const (
	laggardEvery = 32
	laggardNap   = 500 * time.Microsecond
)

// MutexSliceLog is the blocking baseline a hand-rolled broadcast log
// uses: one sync.Mutex guarding an entry slice plus per-consumer read
// positions, compacting from the front once capacity is reached and no
// consumer still needs the prefix. stall (which may be nil) is drawn
// while the mutex is held whenever an entry's value is touched —
// appends and reads alike — mirroring wflog's in-critical-section
// encodes on both sides.
type MutexSliceLog struct {
	mu    sync.Mutex
	buf   []uint64
	base  uint64
	cap   int
	pos   []uint64
	stall *workload.StallPoint
}

// NewMutexSliceLog creates a baseline log retaining at most capacity
// entries.
func NewMutexSliceLog(capacity int, stall *workload.StallPoint) *MutexSliceLog {
	return &MutexSliceLog{cap: capacity, stall: stall}
}

// TryAppend appends v, compacting consumed prefix first when full;
// it reports false when the slowest consumer pins the whole window.
func (l *MutexSliceLog) TryAppend(_, v uint64) bool {
	l.mu.Lock()
	if len(l.buf) >= l.cap {
		min := l.base + uint64(len(l.buf))
		for _, p := range l.pos {
			if p < min {
				min = p
			}
		}
		if min == l.base {
			l.mu.Unlock()
			return false
		}
		drop := min - l.base
		l.buf = append(l.buf[:0], l.buf[drop:]...)
		l.base = min
	}
	l.stall.Hit()
	l.buf = append(l.buf, v)
	l.mu.Unlock()
	return true
}

// Len reports the retained-entry count.
func (l *MutexSliceLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// NewReader attaches a consumer at the current head (the oldest
// retained entry), returning its reader.
func (l *MutexSliceLog) NewReader() *MutexSliceReader {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pos = append(l.pos, l.base)
	return &MutexSliceReader{log: l, idx: len(l.pos) - 1}
}

// MutexSliceReader is one consumer's position in a MutexSliceLog.
type MutexSliceReader struct {
	log *MutexSliceLog
	idx int
}

// Close detaches the reader: its position stops pinning compaction and
// it must not be read again.
func (r *MutexSliceReader) Close() {
	l := r.log
	l.mu.Lock()
	l.pos[r.idx] = ^uint64(0)
	l.mu.Unlock()
}

// TryNext delivers the reader's next entry, reporting false at the
// tail.
func (r *MutexSliceReader) TryNext() (uint64, bool) {
	l := r.log
	l.mu.Lock()
	p := l.pos[r.idx]
	if p >= l.base+uint64(len(l.buf)) {
		l.mu.Unlock()
		return 0, false
	}
	l.stall.Hit()
	v := l.buf[p-l.base]
	l.pos[r.idx] = p + 1
	l.mu.Unlock()
	return v, true
}

// ChanFanLog is the channel-idiom baseline: producers send into one
// input channel and a broadcaster goroutine forwards every entry to a
// buffered per-consumer channel with blocking sends — the standard Go
// pub/sub shape. Its failure mode is structural: one slow consumer
// fills its buffer and the blocking fan-out send head-of-line blocks
// every other consumer. stall (which may be nil) is drawn in the
// broadcaster once per forwarded entry.
type ChanFanLog struct {
	in    chan uint64
	outs  []chan uint64
	stall *workload.StallPoint
	dist  atomic.Uint64
	done  chan struct{}
}

// NewChanFanLog creates a fan-out over the given consumer count; the
// input and every consumer buffer hold capacity entries.
func NewChanFanLog(capacity, consumers int, stall *workload.StallPoint) *ChanFanLog {
	l := &ChanFanLog{
		in:    make(chan uint64, capacity),
		outs:  make([]chan uint64, consumers),
		stall: stall,
		done:  make(chan struct{}),
	}
	for i := range l.outs {
		l.outs[i] = make(chan uint64, capacity)
	}
	go l.broadcast()
	return l
}

func (l *ChanFanLog) broadcast() {
	defer close(l.done)
	for v := range l.in {
		l.stall.Hit()
		for _, out := range l.outs {
			out <- v
		}
		l.dist.Add(1)
	}
}

// TryAppend submits v to the broadcaster, reporting false when the
// input buffer is full.
func (l *ChanFanLog) TryAppend(_, v uint64) bool {
	select {
	case l.in <- v:
		return true
	default:
		return false
	}
}

// Reader returns consumer i's non-blocking receive; the stall is drawn
// beside the receive, outside the runtime's channel lock.
func (l *ChanFanLog) Reader(i int) func() (uint64, bool) {
	ch := l.outs[i]
	return func() (uint64, bool) {
		select {
		case v := <-ch:
			l.stall.Hit()
			return v, true
		default:
			return 0, false
		}
	}
}

// Distributed reports how many entries the broadcaster has forwarded to
// every consumer — the replay runs' prefill barrier.
func (l *ChanFanLog) Distributed() uint64 { return l.dist.Load() }

// Close stops the broadcaster after it drains the input.
func (l *ChanFanLog) Close() {
	close(l.in)
	<-l.done
}

// logSweep drives sc against the wflog shard sweep and the
// mutex+slice and channel-fan-out baselines, in the raw and
// holder-stall regimes, and tabulates delivered throughput, retention
// and contention.
func logSweep(sc *workload.LogScenario, s Scale, _ []Variant) (*sweep, error) {
	itemsPer := s.pick(200, 2000)
	if sc.Replay && sc.Producers*itemsPer > sc.Capacity {
		return nil, fmt.Errorf("%s: replay prefill %d exceeds capacity %d",
			sc.Name, sc.Producers*itemsPer, sc.Capacity)
	}
	shape := "live"
	if sc.Replay {
		shape = "replay"
	}
	sw := &sweep{
		title: fmt.Sprintf("%s: %d producers × %d items broadcast to %d consumers (%d lagging), cap %d, segment %d, %s",
			sc.Name, sc.Producers, itemsPer, sc.Consumers, sc.Laggards, sc.Capacity, sc.Segment, shape),
		param:  "shards",
		stalls: true,
		rate:   "deliv/sec",
		cols:   []string{"trimmed", "lagmax", "success", "attempts/op"},
		obs:    true,
		notes: []string{
			"deliv/sec counts consumer-side deliveries (every consumer reads the whole stream); every run audits gapless per-producer delivery order",
			"raw regime: the mutex+slice and channel fan-out win on constant factors — every wflog attempt pays the adaptive variant's padded delays",
			fmt.Sprintf("stall regime: appenders and readers stall mid-value-touch (%v every %d touches); a stalled mutex-log holder — appender or subscriber — blocks everyone, a stalled chanfan broadcaster head-of-line blocks the fan-out, a stalled wflog section is helped past and disturbs one shard", workload.StallDur, workload.StallPeriod),
			"trimmed counts entries reclaimed in-append behind the slowest cursor; lagmax samples the largest cursor backlog at producer completion"},
	}
	procs := sc.Producers + sc.Consumers + 4
	for _, shards := range logShardCounts {
		sw.rows = append(sw.rows, row{"wflog", fmt.Sprint(shards), func(sp *workload.StallPoint) (*run, error) {
			return wflogRun(sc, shards, procs, itemsPer, sp)
		}})
	}
	sw.rows = append(sw.rows, row{"mutexslice", "1", func(sp *workload.StallPoint) (*run, error) {
		ml := NewMutexSliceLog(sc.Capacity, sp)
		im := &logImpl{append: ml.TryAppend}
		for c := 0; c < sc.Consumers; c++ {
			im.read = append(im.read, ml.NewReader().TryNext)
		}
		return logRun(sc, itemsPer, im), nil
	}})
	sw.rows = append(sw.rows, row{"chanfan", "-", func(sp *workload.StallPoint) (*run, error) {
		cf := NewChanFanLog(sc.Capacity, sc.Consumers, sp)
		im := &logImpl{append: cf.TryAppend}
		for c := 0; c < sc.Consumers; c++ {
			im.read = append(im.read, cf.Reader(c))
		}
		im.settle = func(total int) {
			for cf.Distributed() < uint64(total) {
				runtime.Gosched()
			}
		}
		r := logRun(sc, itemsPer, im)
		r.finish = func() error { cf.Close(); return nil }
		return r, nil
	}})
	return sw, nil
}

// logImpl is one implementation wired for a run: an appender, one
// pre-attached reader per consumer, and prefill hooks.
type logImpl struct {
	append func(key, v uint64) bool
	read   []func() (uint64, bool)
	// settle, when non-nil, blocks until a replay prefill of total
	// entries is visible to every reader (the channel baseline's
	// broadcaster is asynchronous).
	settle func(total int)
	// atPeak, when non-nil, samples retention at the moment the
	// producers finish — the lagmax column's high-water mark.
	atPeak func()
}

// wflogRun builds a Log sized for the scenario at the given shard
// count, with a consumer-slot pool matching the scenario topology. Like
// the queue tier it runs the unknown-bounds adaptive-delay variant: the
// per-shard point contention is far below the goroutine count.
func wflogRun(sc *workload.LogScenario, shards, procs, itemsPer int, sp *workload.StallPoint) (*run, error) {
	budget := wflocks.LogCriticalSteps(1, 1, sc.Consumers, sc.Segment)
	m, err := NewManager(VariantAdaptive, procs, 2, budget, wflocks.WithMetrics())
	if err != nil {
		return nil, err
	}
	lg, err := wflocks.NewLogOf[uint64](m, StallValueCodec(sp),
		wflocks.WithLogShards(shards), wflocks.WithLogCapacity(sc.Capacity),
		wflocks.WithLogSegment(sc.Segment), wflocks.WithLogBatch(1),
		wflocks.WithLogConsumers(sc.Consumers))
	if err != nil {
		return nil, err
	}
	if sc.Replay && itemsPer > lg.Cap()/shards {
		// Keyed appends pin a producer to one shard, so a replay
		// prefill must fit per shard, not just in aggregate.
		return nil, fmt.Errorf("%s: replay prefill %d per producer exceeds per-shard capacity %d at %d shards",
			sc.Name, itemsPer, lg.Cap()/shards, shards)
	}
	im := &logImpl{append: lg.TryAppendKeyed}
	for c := 0; c < sc.Consumers; c++ {
		cur, err := lg.NewCursor()
		if err != nil {
			return nil, err
		}
		im.read = append(im.read, cur.TryNext)
	}
	var lagPeak int
	im.atPeak = func() { lagPeak = lg.Stats().MaxLag }
	r := logRun(sc, itemsPer, im)
	r.mgrs = []*wflocks.Manager{m}
	r.cols = func(t *tally) []string {
		st := lg.Stats()
		// An op is one read, plus one append per item a live run
		// produces (a replay's appends are its unmeasured prefill).
		ops := int(st.Reads)
		if !sc.Replay {
			ops += sc.Producers * itemsPer
		}
		return []string{fmt.Sprint(st.Trimmed), fmt.Sprint(lagPeak), t.success(), t.attemptsPer(ops)}
	}
	return r, nil
}

// logRun wires one implementation into a timed run: producers append
// keyed by their id, every consumer reads the whole stream through its
// own reader, and each delivery is audited for gapless per-producer
// order. A replay run prefills the whole stream here, unmeasured and
// unstalled, and times only the concurrent drain. The run renders a
// baseline's blank columns; wflogRun sets its own.
func logRun(sc *workload.LogScenario, itemsPer int, im *logImpl) *run {
	total := sc.Producers * itemsPer
	produce := func(w int) {
		for i := 0; i < itemsPer; i++ {
			v := uint64(w)<<32 | uint64(i+1)
			for !im.append(uint64(w), v) {
				runtime.Gosched()
			}
		}
	}
	consume := func(c int) error {
		read := im.read[c]
		last := make([]uint32, sc.Producers)
		for reads := 0; reads < total; {
			v, ok := read()
			if !ok {
				runtime.Gosched()
				continue
			}
			pid := int(v >> 32)
			seq := uint32(v)
			if pid >= sc.Producers || seq != last[pid]+1 {
				return fmt.Errorf("consumer %d: entry %d/%d breaks prefix order (want seq %d)",
					c, pid, seq, last[pid]+1)
			}
			last[pid] = seq
			reads++
			if c < sc.Laggards && reads%laggardEvery == 0 {
				time.Sleep(laggardNap)
			}
		}
		return nil
	}
	producers := sc.Producers
	if sc.Replay {
		for w := 0; w < producers; w++ {
			produce(w)
		}
		if im.settle != nil {
			im.settle(total)
		}
		if im.atPeak != nil {
			im.atPeak()
		}
		producers = 0
	}
	var producing atomic.Int64
	producing.Store(int64(producers))
	return &run{
		workers: producers + sc.Consumers,
		ops:     sc.Consumers * total,
		work: func(w int) error {
			if w >= producers {
				return consume(w - producers)
			}
			produce(w)
			if producing.Add(-1) == 0 && im.atPeak != nil {
				im.atPeak()
			}
			return nil
		},
		cols: func(*tally) []string { return []string{"-", "-", "-", "-"} },
	}
}
