package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"pimendure/internal/mapping"
	"pimendure/internal/program"
	"pimendure/internal/synth"
	"pimendure/internal/workloads"
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
}

// One plan serves concurrent +Hw Simulate calls and Steppers whose runs
// need epoch lengths 1 to 13 — RecompileEvery and Iterations varied, most
// with a short final epoch — and every result equals SimulateReference:
// each run replays its own lengths, and the shared plan is only read.
func TestHwRunsShareOnePlan(t *testing.T) {
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	dot, err := workloads.DotProduct(cfg, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	runs := [][2]int{{3, 10}, {4, 11}, {5, 17}, {6, 20}, {7, 23}, {9, 31}, {10, 26}, {11, 30}, {12, 12}, {13, 14}}
	strats := []StrategyConfig{
		{Within: mapping.Random, Between: mapping.Random, Hw: true},
		{Within: mapping.Static, Between: mapping.ByteShift, Hw: true},
		{Within: mapping.ByteShift, Between: mapping.Static, Hw: true},
	}
	for _, tr := range []*program.Trace{mult.Trace, dot.Trace} {
		plan := NewWearPlan(tr, 96, true)
		var wg sync.WaitGroup
		for _, run := range runs {
			sim := SimConfig{Rows: 96, PresetOutputs: true, RecompileEvery: run[0], Iterations: run[1], Seed: 7, Workers: 2}
			for _, strat := range strats {
				ref, err := SimulateReference(tr, sim, strat)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%d ops, %d iterations every %d, %s", len(tr.Ops), run[1], run[0], strat.Name())
				check := func(engine string, d *WriteDist, err error) {
					if err != nil {
						t.Errorf("%s: %s: %v", name, engine, err)
					} else if !d.Equal(ref) {
						t.Errorf("%s: %s diverges from SimulateReference", name, engine)
					}
				}
				wg.Add(2)
				go func() {
					defer wg.Done()
					d, err := plan.Simulate(sim, strat)
					check("Simulate", d, err)
				}()
				go func() {
					defer wg.Done()
					st, err := plan.NewStepper(sim, strat)
					if err != nil {
						check("Stepper", nil, err)
						return
					}
					for left := sim.Iterations; left > 0; left -= sim.RecompileEvery {
						st.Step(min(left, sim.RecompileEvery))
					}
					d, err := st.Finish()
					check("Stepper", d, err)
				}()
			}
		}
		wg.Wait()
	}
}
