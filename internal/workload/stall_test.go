package workload

import (
	"testing"
	"time"
)

func TestStallPoint(t *testing.T) {
	// Unarmed, hits draw but never sleep (setup work is free).
	sp := NewStallPoint(2, 2*time.Millisecond)
	start := time.Now()
	for i := 0; i < 100; i++ {
		sp.Hit()
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("unarmed stall point slept (%v)", elapsed)
	}
	// Armed, every second call sleeps: four calls must cost at least
	// two stall durations.
	sp.Arm()
	start = time.Now()
	for i := 0; i < 4; i++ {
		sp.Hit()
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("4 armed hits at period 2 took %v, want >= 4ms", elapsed)
	}
	// A nil point is inert for both calls.
	var nilSP *StallPoint
	nilSP.Arm()
	start = time.Now()
	for i := 0; i < 1000; i++ {
		nilSP.Hit()
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("nil stall point cost %v", elapsed)
	}
}
