package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestContractMatchesBenchmarkJSON checks that the metrics and
// workloads the benchmark prints are the ones BENCHMARK.json declares.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s is implemented but not declared", name)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the ledger prints %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), ledger has %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	want := map[string]string{"setup_s": "s", "ops_per_s": "1/s", "p50_us": "us", "p999_us": "us", "peak_rss_mb": "MB"}
	if len(doc.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the benchmark prints %d", len(doc.EndToEnd), len(want))
	}
	for _, m := range doc.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end_to_end %s (%s) is not printed with that unit", m.Name, m.Unit)
		}
	}
}

func TestQuantiles(t *testing.T) {
	l := sorted(lats{5, 1, 4, 2, 3})
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.99, 5}, {0.2, 1}, {0, 1}} {
		if got := l.q(c.q); got != c.want {
			t.Errorf("q(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestZipfIsSeeded(t *testing.T) {
	draw := func(seed uint64) []uint64 {
		r := newRand(seed, 0)
		z := newZipf(r, 100, 0.9)
		out := make([]uint64, 20)
		for i := range out {
			out[i] = z.draw(r)
		}
		return out
	}
	if !slices.Equal(draw(7), draw(7)) {
		t.Error("the same seed drew different keys")
	}
	if slices.Equal(draw(7), draw(8)) {
		t.Error("different seeds drew the same keys")
	}
}
