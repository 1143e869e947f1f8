package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// newRand returns the generator for one input stream of the run. Every
// input the benchmark feeds the library — keys, op mix, stall schedule —
// comes from a stream derived from the run's seed, so the same seed
// replays the same inputs.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream*0x9e3779b97f4a7c15+1))
}

// zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s by inverse-CDF lookup; unlike math/rand's Zipf it
// accepts exponents below 1 (the serve workload uses 0.9). Ranks are
// mapped through a seeded permutation, so the hottest keys land on
// arbitrary shards rather than on the lowest key numbers.
type zipf struct {
	cdf  []float64
	perm []uint64
}

func newZipf(r *rand.Rand, n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: make([]uint64, n)}
	sum := 0.0
	for i := range n {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	for i := range z.perm {
		z.perm[i] = uint64(i)
	}
	r.Shuffle(n, func(i, j int) { z.perm[i], z.perm[j] = z.perm[j], z.perm[i] })
	return z
}

// draw returns one key in [0, n).
func (z *zipf) draw(r *rand.Rand) uint64 {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.perm) {
		i = len(z.perm) - 1
	}
	return z.perm[i]
}

// hottest returns the n most probable keys, hottest first.
func (z *zipf) hottest(n int) []uint64 {
	if n > len(z.perm) {
		n = len(z.perm)
	}
	return z.perm[:n]
}
