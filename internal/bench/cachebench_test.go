package bench

import (
	"testing"
	"time"

	"wflocks/internal/workload"
)

func TestMutexLRUBasic(t *testing.T) {
	c := NewMutexLRU(3, nil)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Put(3, 30)
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = (%d, %v)", v, ok)
	}
	// Recency is now 1 > 3 > 2; inserting a fourth key evicts 2.
	c.Put(4, 40)
	if _, ok := c.Get(2); ok {
		t.Fatal("LRU key 2 survived the eviction")
	}
	for _, k := range []uint64{1, 3, 4} {
		if v, ok := c.Get(k); !ok || v != k*10 {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if !c.Delete(3) || c.Delete(3) {
		t.Fatal("Delete(3) sequence wrong")
	}
	hits, misses, evictions := c.Counters()
	if hits != 4 || misses != 1 || evictions != 1 {
		t.Fatalf("counters = %d/%d/%d, want 4/1/1", hits, misses, evictions)
	}
	// Overwrite refreshes recency without growing.
	c.Put(1, 11)
	c.Put(5, 50)
	c.Put(6, 60) // evicts 4 (1 was refreshed, 3 deleted)
	if _, ok := c.Get(4); ok {
		t.Fatal("key 4 should have been evicted after 1 was refreshed")
	}
	if v, ok := c.Get(1); !ok || v != 11 {
		t.Fatalf("refreshed Get(1) = (%d, %v)", v, ok)
	}
}

func TestStallValueCodecRoundTrip(t *testing.T) {
	// Period 2: the second armed draw stalls. Encode must draw exactly
	// once and Decode never, so the stall lands in the second Encode: a
	// double-drawing Encode would sleep in the first, and a drawing
	// Decode would take the stall itself and leave the second Encode fast.
	const d = 40 * time.Millisecond
	sp := workload.NewStallPoint(2, d)
	vc := StallValueCodec(sp)
	if vc.Words() != 1 {
		t.Fatalf("Words = %d, want 1", vc.Words())
	}
	sp.Arm()
	var buf [1]uint64
	start := time.Now()
	vc.Encode(12345, buf[:])
	if elapsed := time.Since(start); elapsed >= d/2 {
		t.Fatalf("first armed encode took %v, want no stall (encode drew more than once)", elapsed)
	}
	start = time.Now()
	if got := vc.Decode(buf[:]); got != 12345 {
		t.Fatalf("round trip = %d, want 12345", got)
	}
	if elapsed := time.Since(start); elapsed >= d/2 {
		t.Fatalf("decode took %v, want no stall (decode drew)", elapsed)
	}
	start = time.Now()
	vc.Encode(12345, buf[:])
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("second armed encode took %v, want one %v stall", elapsed, d)
	}
	if StallValueCodec(nil).Words() != 1 {
		t.Fatal("nil stall point codec is not single-word")
	}
}
