package bench

import (
	"runtime"
	"testing"
)

func TestMutexSliceLogBasic(t *testing.T) {
	l := NewMutexSliceLog(4, nil)
	r1 := l.NewReader()
	for v := uint64(1); v <= 4; v++ {
		if !l.TryAppend(0, v) {
			t.Fatalf("append %d failed below capacity", v)
		}
	}
	// r1 pins the whole window: compaction has nothing to drop.
	if l.TryAppend(0, 99) {
		t.Fatal("append succeeded with a reader pinning the full window")
	}
	for v := uint64(1); v <= 2; v++ {
		got, ok := r1.TryNext()
		if !ok || got != v {
			t.Fatalf("r1 next = (%d, %v), want (%d, true)", got, ok, v)
		}
	}
	// Two entries consumed: the next append compacts them away.
	if !l.TryAppend(0, 5) {
		t.Fatal("append failed after the reader advanced")
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d after compaction, want 3", l.Len())
	}
	// A late reader attaches at the compacted head, not the origin.
	r2 := l.NewReader()
	got, ok := r2.TryNext()
	if !ok || got != 3 {
		t.Fatalf("late reader next = (%d, %v), want (3, true)", got, ok)
	}
}

func TestChanFanLogBasic(t *testing.T) {
	l := NewChanFanLog(8, 2, nil)
	defer l.Close()
	r0, r1 := l.Reader(0), l.Reader(1)
	for v := uint64(1); v <= 3; v++ {
		if !l.TryAppend(0, v) {
			t.Fatalf("append %d failed", v)
		}
	}
	for l.Distributed() < 3 {
		runtime.Gosched()
	}
	for _, r := range []func() (uint64, bool){r0, r1} {
		for v := uint64(1); v <= 3; v++ {
			got, ok := r()
			if !ok || got != v {
				t.Fatalf("next = (%d, %v), want (%d, true)", got, ok, v)
			}
		}
		if _, ok := r(); ok {
			t.Fatal("read past the broadcast tail succeeded")
		}
	}
}
