package core_test

import (
	"runtime"
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/gates"
	"pimendure/internal/program"
)

// periodTwoTrace emits one full-mask gate write per iteration into a fixed
// bit: the iteration permutation is a single transposition (row, free), so
// the renamer period is exactly 2.
func periodTwoTrace(lanes int) *program.Trace {
	bld := program.NewBuilder(lanes, 8)
	x := bld.Alloc()
	bld.GateInto(gates.NOT, x, program.NoBit, x)
	return bld.Trace()
}

// partialOnlyTrace emits gate writes only under a partial mask: no
// RenameOnWrite ever fires and the renamer period is 1.
func partialOnlyTrace(lanes int) *program.Trace {
	bld := program.NewBuilder(lanes, 8)
	x := bld.Alloc()
	y := bld.Alloc()
	bld.SetMask(program.RangeMask(lanes, 0, lanes-1))
	bld.GateInto(gates.NOT, x, program.NoBit, y)
	bld.GateInto(gates.NAND, x, y, x)
	return bld.Trace()
}

// checkEnginesAgree runs the fast engine against the serial reference and
// brute force on every +Hw configuration and fails on any divergence.
func checkEnginesAgree(t *testing.T, tr *program.Trace, sim core.SimConfig) {
	t.Helper()
	for _, strat := range core.AllConfigs() {
		if !strat.Hw {
			continue
		}
		fast, err := core.Simulate(tr, sim, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		ref, err := core.SimulateReference(tr, sim, strat)
		if err != nil {
			t.Fatalf("%s reference: %v", strat.Name(), err)
		}
		if !fast.Equal(ref) {
			t.Errorf("%s iters=%d every=%d: cycle-accelerated engine diverges from reference",
				strat.Name(), sim.Iterations, sim.RecompileEvery)
		}
		brute, _, err := core.BruteForce(tr, sim, strat, nil)
		if err != nil {
			t.Fatalf("%s brute: %v", strat.Name(), err)
		}
		if !fast.Equal(brute) {
			t.Errorf("%s iters=%d every=%d: engine diverges from brute force",
				strat.Name(), sim.Iterations, sim.RecompileEvery)
		}
	}
}

// Epochs shorter than the renamer period: closed-cycle accumulation must
// truncate each op's orbit walk at the epoch length, not assume a full
// cycle. An epoch of 1 iteration is the extreme case.
func TestCycleEpochShorterThanPeriod(t *testing.T) {
	tr := periodTwoTrace(4)
	for _, every := range []int{1, 3} { // 1 < period; 3 not a multiple of 2
		sim := core.SimConfig{Rows: 16, PresetOutputs: true, Iterations: 7, RecompileEvery: every, Seed: 5}
		checkEnginesAgree(t, tr, sim)
	}
}

// A period that exactly divides the epoch length: every orbit is walked a
// whole number of times and the truncation branch never fires.
func TestCyclePeriodDividesEpoch(t *testing.T) {
	tr := periodTwoTrace(4)
	sim := core.SimConfig{Rows: 16, PresetOutputs: true, Iterations: 8, RecompileEvery: 4, Seed: 5}
	checkEnginesAgree(t, tr, sim)
}

// A trace with no full-mask writes leaves the renamer static (period 1),
// and the engine must still match.
func TestCycleNoFullMaskWrites(t *testing.T) {
	tr := partialOnlyTrace(4)
	sim := core.SimConfig{Rows: 16, PresetOutputs: true, Iterations: 6, RecompileEvery: 2, Seed: 5}
	checkEnginesAgree(t, tr, sim)
}

// Worker sharding must stay bit-identical when epoch boundaries interact
// with period boundaries every possible way: epochs shorter than, equal
// to, and longer than the period, with and without an uneven tail.
func TestCycleWorkerIdentityAtPeriodBoundaries(t *testing.T) {
	tr := periodTwoTrace(4)
	workers := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, shape := range []struct{ iters, every int }{
		{7, 1},  // epoch < period
		{8, 2},  // epoch == period
		{10, 4}, // period divides epoch, uneven tail (10 % 4 != 0)
		{9, 3},  // epoch not a multiple of the period
	} {
		for _, strat := range core.AllConfigs() {
			if !strat.Hw {
				continue
			}
			var first *core.WriteDist
			for _, w := range workers {
				sim := core.SimConfig{
					Rows: 16, PresetOutputs: true,
					Iterations: shape.iters, RecompileEvery: shape.every,
					Seed: 11, Workers: w,
				}
				d, err := core.Simulate(tr, sim, strat)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", strat.Name(), w, err)
				}
				if first == nil {
					first = d
				} else if !d.Equal(first) {
					t.Errorf("%s shape %+v: workers=%d distribution differs from workers=%d",
						strat.Name(), shape, w, workers[0])
				}
			}
		}
	}
}
