package core

import (
	"slices"
	"testing"
)

// orbitWalkHist is the named oracle for accumulateClosedCycle: it walks
// every op's σ-orbit one iteration at a time, n steps from its start,
// exactly as an op-by-op replay of the renamer visits the rows.
func orbitWalkHist(ops []wop, starts []int32, sigma []int, n, rows, masks int) []uint64 {
	hist := make([]uint64, masks*rows)
	for i, op := range ops {
		v := int(starts[i])
		for t := 0; t < n; t++ {
			hist[int(op.mask)*rows+v] += uint64(op.w)
			v = sigma[v]
		}
	}
	return hist
}

// The closed form must equal the orbit walk for every relation between
// the epoch length and the cycle lengths, on a scratch reused across
// cases so stale differences or histogram entries would show.
func TestAccumulateClosedCycleMatchesOrbitWalk(t *testing.T) {
	const rows, masks = 8, 2
	// Cycles in orbit order: (0 3 6 1) L=4, (2 5) L=2, (4) L=1, (7) L=1.
	sigma := []int{3, 0, 5, 6, 4, 2, 1, 7}
	identity := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// Ops on both masks, starting at every offset of the 4-cycle (3 and 1
	// sit past its middle, so their leftover ranges wrap), on the 2-cycle
	// and on the fixed points.
	ops := []wop{
		{mask: 0, w: 1}, {mask: 1, w: 2}, {mask: 0, w: 3}, {mask: 1, w: 1},
		{mask: 0, w: 2}, {mask: 1, w: 3}, {mask: 0, w: 1}, {mask: 1, w: 2},
	}
	starts := []int32{0, 3, 6, 1, 2, 5, 4, 7}
	cases := []struct {
		name  string
		sigma []int
		n     int
	}{
		{"n<L on every cycle", sigma, 1},
		{"n<L on the 4-cycle, n=L on the 2-cycle", sigma, 2},
		{"n<L, ranges wrap", sigma, 3},
		{"n=L", sigma, 4},
		{"n=qL+s, s-range wraps", sigma, 7},
		{"n=qL+s, no wrap on the 4-cycle", sigma, 9},
		{"n=qL+s, q large", sigma, 1_000_003},
		{"L=1 only", identity, 5},
	}
	cyc := newCycleScratch(rows, len(ops), masks)
	copy(cyc.starts, starts)
	hist := make([]uint64, masks*rows)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cyc.decompose(func(v int) int { return c.sigma[v] })
			for i := range hist {
				hist[i] = 0xdead // every entry must be overwritten
			}
			accumulateClosedCycle(ops, cyc, uint64(c.n), rows, hist)
			want := orbitWalkHist(ops, starts, c.sigma, c.n, rows, masks)
			if !slices.Equal(hist, want) {
				t.Errorf("n=%d: closed form %v, orbit walk %v", c.n, hist, want)
			}
			for i, d := range cyc.diff {
				if d != 0 {
					t.Fatalf("difference entry %d left at %d", i, d)
				}
			}
		})
	}
	cyc.decompose(func(v int) int { return sigma[v] })
	if cyc.period != 4 {
		t.Errorf("period = %d, want lcm(4, 2, 1, 1) = 4", cyc.period)
	}
}
