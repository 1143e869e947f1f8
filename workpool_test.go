package wflocks

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolManager builds a manager sized for pool tests: κ as given, L=2
// for the steal path, T covering the pool's worst critical section.
func poolManager(t testing.TB, kappa, batch int) *Manager {
	t.Helper()
	m, err := New(
		WithKappa(kappa),
		WithMaxLocks(2),
		WithMaxCriticalSteps(WorkPoolCriticalSteps(1, batch)),
		WithDelayConstants(1, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWorkPoolBasic(t *testing.T) {
	m := poolManager(t, 2, 4)
	wp, err := NewWorkPool[uint64](m,
		WithPoolShards(4), WithPoolCapacity(32), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	if wp.Shards() != 4 || wp.Cap() != 32 {
		t.Fatalf("shape = (%d, %d), want (4, 32)", wp.Shards(), wp.Cap())
	}
	const n = 20
	for v := uint64(1); v <= n; v++ {
		if !wp.TryEnqueue(v) {
			t.Fatalf("TryEnqueue(%d) failed below capacity", v)
		}
	}
	if got := wp.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	// Relaxed FIFO: no global order, but every element comes out
	// exactly once.
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		v, ok := wp.TryDequeue()
		if !ok {
			t.Fatalf("TryDequeue %d failed with %d elements left", i, wp.Len())
		}
		if seen[v] {
			t.Fatalf("element %d dequeued twice", v)
		}
		seen[v] = true
	}
	if _, ok := wp.TryDequeue(); ok {
		t.Fatal("TryDequeue on a drained pool succeeded")
	}
	for v := uint64(1); v <= n; v++ {
		if !seen[v] {
			t.Fatalf("element %d lost", v)
		}
	}
	s := wp.Stats()
	if s.Enqueues != n || s.Dequeues != n || s.Len != 0 {
		t.Fatalf("quiescent stats = %d enq, %d deq, len %d; want %d/%d/0", s.Enqueues, s.Dequeues, s.Len, n, n)
	}
	// Round-robin spread: with 20 sequential submits over 4 shards,
	// every shard saw exactly 5.
	for si, sh := range s.Shards {
		if sh.Enqueues != n/4 {
			t.Fatalf("shard %d enqueues = %d, want %d (round-robin broken)", si, sh.Enqueues, n/4)
		}
	}
	if s.Balance < 0.999 {
		t.Fatalf("balance = %f, want ~1.0 under round-robin", s.Balance)
	}
}

// TestWorkPoolSteal pins the steal path: all elements are planted in
// shard 0, the consumer's home cursor is pointed at shard 1, and the
// dequeue must come back with a stolen element plus a migrated batch
// rebalanced into the home shard.
func TestWorkPoolSteal(t *testing.T) {
	m := poolManager(t, 2, 4)
	wp, err := NewWorkPool[uint64](m,
		WithPoolShards(2), WithPoolCapacity(32), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	// Plant 6 elements directly in shard 0's ring (white-box), then aim
	// the round-robin cursor at shard 1.
	p := m.Acquire()
	ring0 := &wp.rings[0]
	for v := uint64(1); v <= 6; v++ {
		wp.do(p, 0, wp.opBudget, func(tx *Tx) {
			if !ring0.enqOne(tx, v) {
				t.Errorf("plant %d failed", v)
			}
		})
	}
	m.Release(p)
	wp.dq.Store(1) // next TryDequeue homes on shard 1
	v, ok := wp.TryDequeue()
	if !ok || v != 1 {
		t.Fatalf("steal dequeue = (%d, %v), want (1, true) (victim FIFO)", v, ok)
	}
	s := wp.Stats()
	// 1 returned + stealBatch migrated.
	if want := uint64(1 + stealBatch); s.Shards[1].Steals != want {
		t.Fatalf("home shard steals = %d, want %d", s.Shards[1].Steals, want)
	}
	if s.Shards[1].Len != stealBatch || s.Shards[0].Len != 6-1-stealBatch {
		t.Fatalf("post-steal occupancy = [%d %d], want [%d %d]",
			s.Shards[0].Len, s.Shards[1].Len, 6-1-stealBatch, stealBatch)
	}
	// The migrated batch preserved victim order: draining home shard 1
	// yields 2..5, then shard 0 holds 6.
	wp.dq.Store(1)
	for want := uint64(2); want <= 5; want++ {
		wp.dq.Store(1)
		v, ok := wp.TryDequeue()
		if !ok || v != want {
			t.Fatalf("migrated drain = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	wp.dq.Store(0)
	if v, ok := wp.TryDequeue(); !ok || v != 6 {
		t.Fatalf("leftover drain = (%d, %v), want (6, true)", v, ok)
	}
	if got := wp.Len(); got != 0 {
		t.Fatalf("Len after full drain = %d, want 0", got)
	}
}

func TestWorkPoolValidation(t *testing.T) {
	// A multi-shard pool needs the two-lock steal path.
	m1, err := New(WithKappa(2), WithMaxLocks(1),
		WithMaxCriticalSteps(WorkPoolCriticalSteps(1, 8)), WithDelayConstants(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkPool[uint64](m1); err == nil {
		t.Fatal("multi-shard pool accepted on a MaxLocks(1) manager")
	}
	if _, err := NewWorkPool[uint64](m1, WithPoolShards(1)); err != nil {
		t.Fatalf("single-shard pool rejected: %v", err)
	}
	m2 := poolManager(t, 2, 8)
	if _, err := NewWorkPool[uint64](m2, WithPoolShards(0)); err == nil {
		t.Fatal("WithPoolShards(0) accepted")
	}
	if _, err := NewWorkPool[uint64](m2, WithPoolCapacity(-1)); err == nil {
		t.Fatal("WithPoolCapacity(-1) accepted")
	}
	if _, err := NewWorkPool[uint64](m2, WithPoolBatch(0)); err == nil {
		t.Fatal("WithPoolBatch(0) accepted")
	}
	// Budget shortfall is a construction error, as for Queue.
	small, err := New(WithKappa(2), WithMaxLocks(2),
		WithMaxCriticalSteps(QueueCriticalSteps(1, 1)), WithDelayConstants(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkPool[uint64](small); err == nil {
		t.Fatal("pool accepted against a 1-item budget")
	}
	// A one-shard pool never steals, so the Queue budget covers it.
	qm, err := New(WithKappa(2), WithMaxLocks(1),
		WithMaxCriticalSteps(QueueCriticalSteps(1, 8)), WithDelayConstants(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkPool[uint64](qm, WithPoolShards(1), WithPoolBatch(8)); err != nil {
		t.Fatalf("one-shard pool rejected on a QueueCriticalSteps budget: %v", err)
	}
}

// TestWorkPoolDequeueBatchSinglePass pins DequeueBatch's stop rule: a
// pass in which every shard's chunk came up short ends the call, so
// draining 3 elements from 2 shards takes one pass — one acquisition
// and one empty observation per shard — not a second, all-empty pass.
func TestWorkPoolDequeueBatchSinglePass(t *testing.T) {
	m := poolManager(t, 2, 4)
	wp, err := NewWorkPool[uint64](m,
		WithPoolShards(2), WithPoolCapacity(32), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 3; v++ {
		if !wp.TryEnqueue(v) {
			t.Fatalf("TryEnqueue(%d) failed", v)
		}
	}
	got, err := wp.DequeueBatch(context.Background(), 100)
	if err != nil || len(got) != 3 {
		t.Fatalf("DequeueBatch = (%v, %v), want 3 elements", got, err)
	}
	s := wp.Stats()
	if s.EmptyRejects != 2 {
		t.Fatalf("EmptyRejects = %d, want 2 (one per shard)", s.EmptyRejects)
	}
	attempts := uint64(0)
	for _, sh := range s.Shards {
		attempts += sh.Lock.Attempts
	}
	if attempts != 5 {
		t.Fatalf("lock attempts = %d, want 5 (3 enqueues + one pass over 2 shards)", attempts)
	}
}

func TestWorkPoolBatch(t *testing.T) {
	m := poolManager(t, 2, 4)
	wp, err := NewWorkPool[uint64](m,
		WithPoolShards(2), WithPoolCapacity(16), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	vs := make([]uint64, 10)
	for i := range vs {
		vs[i] = uint64(i + 1)
	}
	n, err := wp.EnqueueBatch(ctx, vs)
	if err != nil || n != 10 {
		t.Fatalf("EnqueueBatch = (%d, %v), want (10, nil)", n, err)
	}
	got, err := wp.DequeueBatch(ctx, 100)
	if err != nil || len(got) != 10 {
		t.Fatalf("DequeueBatch = (%d elements, %v), want 10", len(got), err)
	}
	seen := make(map[uint64]bool)
	for _, v := range got {
		if seen[v] {
			t.Fatalf("element %d dequeued twice", v)
		}
		seen[v] = true
	}
	// Empty-handed cancellation.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := wp.DequeueBatch(cctx, 1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled DequeueBatch = %v, want ErrCanceled", err)
	}
	if err := wp.Enqueue(cctx, 1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled Enqueue = %v, want ErrCanceled", err)
	}
}

func TestWorkPoolConcurrentConservation(t *testing.T) {
	const (
		producers = 3
		consumers = 3
		perProd   = 150
	)
	m := poolManager(t, producers+consumers, 4)
	wp, err := NewWorkPool[uint64](m,
		WithPoolShards(4), WithPoolCapacity(32), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wantSum, gotSum, consumed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				v := uint64(w*perProd + i + 1)
				wantSum.Add(v)
				if err := wp.Enqueue(ctx, v); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	const total = producers * perProd
	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if consumed.Load() >= total {
					return
				}
				if v, ok := wp.TryDequeue(); ok {
					gotSum.Add(v)
					consumed.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	if gotSum.Load() != wantSum.Load() {
		t.Fatalf("conservation violated: consumed sum %d, produced sum %d", gotSum.Load(), wantSum.Load())
	}
	s := wp.Stats()
	if s.Enqueues != total || s.Dequeues != total || s.Len != 0 {
		t.Fatalf("quiescent stats = %d enq, %d deq, len %d; want %d/%d/0",
			s.Enqueues, s.Dequeues, s.Len, total, total)
	}
}

func TestWorkPoolEnqueueKeyed(t *testing.T) {
	m := poolManager(t, 4, 4)
	wp, err := NewWorkPool[uint64](m, WithPoolShards(4), WithPoolCapacity(64), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	// All elements submitted under one key land on that key's shard:
	// with plenty of room, keyed submission never falls through to the
	// probe fallback.
	const key = 2
	for i := 0; i < 8; i++ {
		if !wp.TryEnqueueKeyed(key, uint64(i)) {
			t.Fatalf("TryEnqueueKeyed #%d reported full on an empty pool", i)
		}
	}
	st := wp.Stats()
	for s, sh := range st.Shards {
		want := uint64(0)
		if s == key&3 {
			want = 8
		}
		if sh.Enqueues != want {
			t.Fatalf("shard %d enqueues = %d, want %d", s, sh.Enqueues, want)
		}
	}
	// A full home shard falls back to the next shards rather than
	// rejecting: per-shard capacity is 16, so 16 more keyed submissions
	// overflow into neighbors, and every element is still admitted.
	for i := 0; i < 16; i++ {
		if !wp.TryEnqueueKeyed(key, uint64(100+i)) {
			t.Fatalf("keyed overflow submission %d rejected with free shards", i)
		}
	}
	if got := wp.Len(); got != 24 {
		t.Fatalf("Len = %d, want 24", got)
	}
	// The blocking form delivers under contention and honors ctx.
	if err := wp.EnqueueKeyed(context.Background(), 7, 999); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		if _, ok := wp.TryDequeue(); !ok {
			break
		}
		got++
	}
	if got != 25 {
		t.Fatalf("drained %d elements, want 25", got)
	}
}

func TestWorkPoolEnqueueKeyedCanceled(t *testing.T) {
	m := poolManager(t, 2, 1)
	wp, err := NewWorkPool[uint64](m, WithPoolShards(1), WithPoolCapacity(1), WithPoolBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	if !wp.TryEnqueueKeyed(0, 1) {
		t.Fatal("seed enqueue failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = wp.EnqueueKeyed(ctx, 0, 2)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("EnqueueKeyed on a full pool = %v, want ErrCanceled", err)
	}
}

// TestWorkPoolDequeueIdleTakesNoLocks pins the consumer side's
// lock-free shard choice: a blocking Dequeue spinning on an empty pool
// reads occupancy without locking, so the wait adds no lock attempt
// (and no EmptyRejects) on any shard; once one element lands on a
// shard, the call pops it under that shard's lock alone, with no steal.
func TestWorkPoolDequeueIdleTakesNoLocks(t *testing.T) {
	m := poolManager(t, 2, 4)
	wp, err := NewWorkPool[uint64](m,
		WithPoolShards(8), WithPoolCapacity(64), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type result struct {
		v   uint64
		err error
	}
	got := make(chan result, 1)
	go func() {
		v, err := wp.Dequeue(ctx)
		got <- result{v, err}
	}()
	time.Sleep(20 * time.Millisecond)
	for s, sh := range wp.Stats().Shards {
		if sh.Lock.Attempts != 0 || sh.EmptyRejects != 0 {
			t.Fatalf("shard %d after an idle wait: %d lock attempts, %d empty rejects; want 0/0",
				s, sh.Lock.Attempts, sh.EmptyRejects)
		}
	}
	// The consumer's home cursor advances every pass, so shard 5 is
	// not its home on most passes; a lone element is popped under its
	// own shard lock either way.
	const shard = 5
	if !wp.TryEnqueueKeyed(shard, 42) {
		t.Fatal("TryEnqueueKeyed on an empty pool failed")
	}
	r := <-got
	if r.err != nil || r.v != 42 {
		t.Fatalf("Dequeue = (%d, %v), want (42, nil)", r.v, r.err)
	}
	st := wp.Stats()
	if st.Steals != 0 || st.EmptyRejects != 0 {
		t.Fatalf("after the pop: %d steals, %d empty rejects; want 0/0", st.Steals, st.EmptyRejects)
	}
	if sh := st.Shards[shard]; sh.Enqueues != 1 || sh.Dequeues != 1 {
		t.Fatalf("shard %d counted %d enq, %d deq; want 1/1", shard, sh.Enqueues, sh.Dequeues)
	}
	// An empty-handed DequeueBatch pass is lock-free too.
	attempts := func(s WorkPoolStats) (n uint64) {
		for _, sh := range s.Shards {
			n += sh.Lock.Attempts
		}
		return n
	}
	before := attempts(wp.Stats())
	bctx, bcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer bcancel()
	if _, err := wp.DequeueBatch(bctx, 4); !errors.Is(err, ErrCanceled) {
		t.Fatalf("DequeueBatch on an empty pool = %v, want ErrCanceled", err)
	}
	if after := attempts(wp.Stats()); after != before {
		t.Fatalf("idle DequeueBatch took %d lock attempts, want 0", after-before)
	}
}

// TestWorkPoolAllocs is the pool's allocation gate: on an 8-shard
// scalar pool, the enqueue and dequeue frames keep both dispatch pairs
// (the fail-fast pair and the keyed-submit/blocking-dequeue pair a
// server's readers and workers use) at (amortized) zero allocations.
func TestWorkPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	m := poolManager(t, 2, 8)
	wp, err := NewWorkPool[uint64](m, WithPoolShards(8), WithPoolCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := uint64(0)
	pairs := []struct {
		name string
		run  func()
	}{
		{"TryEnqueue+TryDequeue", func() {
			if !wp.TryEnqueue(7) {
				t.Fatal("TryEnqueue failed")
			}
			if _, ok := wp.TryDequeue(); !ok {
				t.Fatal("TryDequeue failed")
			}
		}},
		{"EnqueueKeyed+Dequeue", func() {
			key += 3 // walk every shard, home and not
			if err := wp.EnqueueKeyed(ctx, key, 7); err != nil {
				t.Fatal(err)
			}
			if _, err := wp.Dequeue(ctx); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, pr := range pairs {
		for i := 0; i < 512; i++ {
			pr.run()
		}
		if avg := testing.AllocsPerRun(400, pr.run); avg >= 0.5 {
			t.Fatalf("%s averages %.2f allocs/op, want < 0.5", pr.name, avg)
		}
	}
}

// TestWorkPoolBlockingConservation runs the blocking dispatch shape —
// keyed producers feeding 8 shards, more blocking Dequeue consumers
// than GOMAXPROCS — and checks every value arrives exactly once, for a
// scalar codec (the frame's result word) and a multi-word codec (the
// result cell).
func TestWorkPoolBlockingConservation(t *testing.T) {
	type pair struct{ ID, Check uint64 }
	t.Run("scalar", func(t *testing.T) {
		blockingConservation(t, IntegerCodec[uint64](),
			func(id uint64) uint64 { return id },
			func(v uint64) (uint64, bool) { return v, true })
	})
	t.Run("multiword", func(t *testing.T) {
		codec := CodecFunc(2,
			func(p pair, dst []uint64) { dst[0], dst[1] = p.ID, p.Check },
			func(src []uint64) pair { return pair{src[0], src[1]} })
		blockingConservation(t, codec,
			func(id uint64) pair { return pair{id, ^id} },
			func(p pair) (uint64, bool) { return p.ID, p.Check == ^p.ID })
	})
}

func blockingConservation[T any](t *testing.T, codec Codec[T], mk func(uint64) T, id func(T) (uint64, bool)) {
	const (
		producers = 2
		perProd   = 300
		total     = producers * perProd
	)
	consumers := runtime.GOMAXPROCS(0) + 2
	if consumers < 4 {
		consumers = 4
	}
	m, err := New(
		WithKappa(producers+consumers),
		WithMaxLocks(2),
		WithMaxCriticalSteps(WorkPoolCriticalSteps(codec.Words(), 4)),
		WithDelayConstants(1, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := NewWorkPoolOf[T](m, codec,
		WithPoolShards(8), WithPoolCapacity(64), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	deadline, stop := context.WithTimeout(context.Background(), 60*time.Second)
	defer stop()
	ctx, done := context.WithCancel(deadline)
	defer done()
	var seen [(total + 63) / 64]atomic.Uint64
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				v := uint64(w*perProd + i)
				if err := wp.EnqueueKeyed(ctx, v*0x9e3779b97f4a7c15>>61, mk(v)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				e, err := wp.Dequeue(ctx)
				if err != nil {
					if n := consumed.Load(); n < total {
						t.Errorf("consumer stopped at %d of %d: %v", n, total, err)
					}
					return
				}
				v, intact := id(e)
				if !intact || v >= total {
					t.Errorf("dequeued a corrupt element %+v", e)
					return
				}
				bit := uint64(1) << (v % 64)
				if seen[v/64].Or(bit)&bit != 0 {
					t.Errorf("value %d dequeued twice", v)
				}
				if consumed.Add(1) == total {
					done()
				}
			}
		}()
	}
	wg.Wait()
	for v := uint64(0); v < total; v++ {
		if seen[v/64].Load()&(1<<(v%64)) == 0 {
			t.Fatalf("value %d never dequeued", v)
		}
	}
	s := wp.Stats()
	if s.Enqueues != total || s.Dequeues != total || s.Len != 0 {
		t.Fatalf("quiescent stats = %d enq, %d deq, len %d; want %d/%d/0",
			s.Enqueues, s.Dequeues, s.Len, total, total)
	}
}
