package fleet

import (
	"math"
	"math/rand"

	"pimendure/internal/stats"
)

// ReferenceSample is the per-cell Monte Carlo the engine replaces, kept
// as its statistical oracle: each of devices devices draws one lognormal
// endurance for every written cell, and its lifetime is the minimum over
// those cells of endurance / (count / iterations). Unwritten cells never
// fail. It costs O(devices × written cells) lognormal draws, so it suits
// the KS and moment tests and the engine's speedup benchmark, not
// fleet-scale studies.
func (m Model) ReferenceSample(counts []uint64, iterations, devices int, seed int64) []float64 {
	l := stats.LognormalMedian(m.MedianEndurance, m.Sigma)
	var rates []float64
	for _, c := range counts {
		if c != 0 {
			rates = append(rates, float64(c)/float64(iterations))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, devices)
	for d := range out {
		first := math.Inf(1)
		for _, r := range rates {
			if life := l.Draw(rng) / r; life < first {
				first = life
			}
		}
		out[d] = first
	}
	return out
}
