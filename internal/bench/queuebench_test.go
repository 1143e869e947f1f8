package bench

import "testing"

func TestMutexRingBasic(t *testing.T) {
	q := NewMutexRing(4, nil)
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("dequeue from empty ring succeeded")
	}
	for v := uint64(1); v <= 4; v++ {
		if !q.TryEnqueue(v) {
			t.Fatalf("enqueue %d failed below capacity", v)
		}
	}
	if q.TryEnqueue(99) {
		t.Fatal("enqueue into full ring succeeded")
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	for v := uint64(1); v <= 4; v++ {
		got, ok := q.TryDequeue()
		if !ok || got != v {
			t.Fatalf("dequeue = (%d, %v), want (%d, true)", got, ok, v)
		}
	}
}
