package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"pimendure/pim"
)

// simSum identifies one simulated write distribution: the FNV-64a
// checksum of its per-cell counts and its hottest cell.
type simSum struct {
	FNV string `json:"fnv"`
	Max uint64 `json:"max"`
}

// golden holds results of the batch workloads at one seed, produced once
// by -write-golden from the engines the benchmark was defined against.
// Any later engine must reproduce them bit for bit.
type golden struct {
	Seed int64 `json:"seed"`
	// Sims is keyed "<kernel>/<strategy>".
	Sims map[string]simSum `json:"sims"`
	// Fleet is keyed "<strategy>/<technology>/<sigma>" and holds the
	// B1, B10 and B50 iteration counts.
	Fleet map[string][]float64 `json:"fleet"`
}

//go:embed golden/seed1.json
var goldenJSON []byte

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden/seed1.json: %w", err)
	}
	return &g, nil
}

// distFNV is the FNV-64a checksum over little-endian per-cell counts,
// the same witness the job server reports as dist_fnv.
func distFNV(counts []uint64) string {
	h := fnv.New64a()
	buf := make([]byte, 8*1024)
	for len(counts) > 0 {
		n := min(len(counts), len(buf)/8)
		for i, c := range counts[:n] {
			for b := 0; b < 8; b++ {
				buf[8*i+b] = byte(c >> (8 * b))
			}
		}
		_, _ = h.Write(buf[:8*n])
		counts = counts[n:]
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func simKey(kernel string, s pim.Strategy) string { return kernel + "/" + s.Name() }

func fleetKey(p pim.FleetPoint) string {
	return p.Strategy.Name() + "/" + p.Technology.Name + "/" + strconv.FormatFloat(p.Sigma, 'g', -1, 64)
}

// checkSweep verifies one sweep's distributions against the invariants
// that hold for any seed — every strategy writes exactly the trace's
// cell writes per iteration — and, at the golden seed, against the
// golden checksums. It returns the sweep's summaries.
func checkSweep(g *golden, kernel string, b *pim.Benchmark, opt pim.Options, seed int64, results []*pim.Result) (map[string]simSum, error) {
	out := make(map[string]simSum, len(results))
	for _, r := range results {
		want := uint64(b.Trace.CellWrites(opt.PresetOutputs)) * uint64(r.Dist.Iterations)
		if got := r.Dist.Total(); got != want {
			return nil, fmt.Errorf("%s/%s: total writes %d, want %d", kernel, r.Strategy.Name(), got, want)
		}
		key := simKey(kernel, r.Strategy)
		sum := simSum{FNV: distFNV(r.Dist.Counts), Max: r.Dist.Max()}
		out[key] = sum
		if g == nil || seed != g.Seed {
			continue
		}
		if want, ok := g.Sims[key]; ok && want != sum {
			return nil, fmt.Errorf("%s at seed %d: got fnv %s max %d, golden fnv %s max %d",
				key, seed, sum.FNV, sum.Max, want.FNV, want.Max)
		}
	}
	return out, nil
}

// checkFleet verifies fleet points: quantiles finite and ordered
// B1 ≤ B10 ≤ B50 at any seed, equal to the golden values at its seed.
func checkFleet(g *golden, seed int64, points []pim.FleetPoint) (map[string][]float64, error) {
	out := make(map[string][]float64, len(points))
	for _, p := range points {
		key := fleetKey(p)
		q := p.Quantiles
		if len(q) != 3 {
			return nil, fmt.Errorf("%s: %d quantiles, want 3", key, len(q))
		}
		for _, v := range q {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("%s: quantile %v is not a positive finite number", key, v)
			}
		}
		if !(q[0] <= q[1] && q[1] <= q[2]) {
			return nil, fmt.Errorf("%s: B1 %v, B10 %v, B50 %v are out of order", key, q[0], q[1], q[2])
		}
		out[key] = q
		if g == nil || seed != g.Seed {
			continue
		}
		if want, ok := g.Fleet[key]; ok && !equalFloats(want, q) {
			return nil, fmt.Errorf("%s at seed %d: got %v, golden %v", key, seed, q, want)
		}
	}
	return out, nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
