package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/mapping"
	"pimendure/internal/synth"
	"pimendure/internal/traceio"
	"pimendure/internal/workloads"
)

// The parallel + memoized engine must stay bit-identical to both ground
// truths — the retained pre-memoization serial engine and brute-force
// functional execution — for all 18 configurations, including an uneven
// final epoch (Iterations % RecompileEvery != 0).
func TestParallelEngineMatchesReferenceAndBruteForce(t *testing.T) {
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := mult.Trace
	sim := core.SimConfig{
		Rows:           96,
		PresetOutputs:  true,
		Iterations:     23,
		RecompileEvery: 7, // 23 % 7 != 0: final epoch is short
		Seed:           42,
	}
	for _, workers := range []int{1, 4} {
		sim.Workers = workers
		for _, strat := range core.AllConfigs() {
			fast, err := core.Simulate(tr, sim, strat)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", strat.Name(), workers, err)
			}
			ref, err := core.SimulateReference(tr, sim, strat)
			if err != nil {
				t.Fatalf("%s reference: %v", strat.Name(), err)
			}
			if !fast.Equal(ref) {
				t.Errorf("%s workers=%d: parallel engine diverges from serial reference (fast max %d total %d, ref max %d total %d)",
					strat.Name(), workers, fast.Max(), fast.Total(), ref.Max(), ref.Total())
			}
			brute, _, err := core.BruteForce(tr, sim, strat, nil)
			if err != nil {
				t.Fatalf("%s brute force: %v", strat.Name(), err)
			}
			if !fast.Equal(brute) {
				t.Errorf("%s workers=%d: parallel engine diverges from brute force", strat.Name(), workers)
			}
		}
	}
}

// The distribution must be bit-identical across worker counts; the merge
// is commutative uint64 addition, so scheduling must not leak into the
// result.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := mult.Trace
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, strat := range core.AllConfigs() {
		var first *core.WriteDist
		for _, w := range counts {
			sim := core.SimConfig{
				Rows: 96, PresetOutputs: true,
				Iterations: 37, RecompileEvery: 5, Seed: 7,
				Workers: w,
			}
			d, err := core.Simulate(tr, sim, strat)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", strat.Name(), w, err)
			}
			if first == nil {
				first = d
			} else if !d.Equal(first) {
				t.Errorf("%s: Workers=%d produced a different distribution than Workers=%d",
					strat.Name(), w, counts[0])
			}
		}
	}
}

// Epoch memoization groups identical within-lane permutations: a Bs
// rotation whose period divides the epoch count must recur, and the
// grouped replay must still match the exhaustive reference.
func TestEngineMemoizesCyclicShifts(t *testing.T) {
	cfg := workloads.Config{Lanes: 8, Rows: 65, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := mult.Trace
	// Hw leaves 64 architectural rows; step 8 cycles with period 8, so 24
	// epochs hit each unique rotation 3 times.
	sim := core.SimConfig{
		Rows: 65, PresetOutputs: true,
		Iterations: 24, RecompileEvery: 1, Seed: 3,
	}
	strat := core.StrategyConfig{Within: mapping.ByteShift, Between: mapping.Random, Hw: true}
	fast, err := core.Simulate(tr, sim, strat)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.SimulateReference(tr, sim, strat)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Equal(ref) {
		t.Error("memoized cyclic-shift run diverges from reference")
	}
}

// SoftwareConfigs must return a copy: appending to it must not corrupt
// the +Hw entries of AllConfigs' backing array.
func TestSoftwareConfigsIsCopy(t *testing.T) {
	sw := core.SoftwareConfigs()
	if len(sw) != 9 {
		t.Fatalf("len = %d, want 9", len(sw))
	}
	sw = append(sw, core.StrategyConfig{Hw: true, Within: mapping.Random, Between: mapping.Random})
	if !sw[9].Hw {
		t.Error("append lost")
	}
	for i, c := range core.SoftwareConfigs() {
		if c.Hw {
			t.Fatalf("config %d gained Hw after caller append", i)
		}
	}
	all := core.AllConfigs()
	if !all[9].Hw {
		t.Error("AllConfigs()[9] lost its Hw flag: SoftwareConfigs aliases the backing array")
	}
}

// Negative shift steps rotate backwards, diverging from the paper's Bs
// definition; Validate must reject them.
func TestNegativeShiftStepRejected(t *testing.T) {
	tr := smallBenches(t)["mult"]
	sim := core.SimConfig{Rows: 96, Iterations: 5, ShiftStep: -8}
	if _, err := core.Simulate(tr, sim, core.Static); err == nil {
		t.Error("negative ShiftStep accepted by Simulate")
	}
	if _, _, err := core.BruteForce(tr, sim, core.Static, nil); err == nil {
		t.Error("negative ShiftStep accepted by BruteForce")
	}
	sim.ShiftStep = 8
	if _, err := core.Simulate(tr, sim, core.Static); err != nil {
		t.Errorf("positive ShiftStep rejected: %v", err)
	}
}

// A zero-iteration distribution must round-trip through traceio cell for
// cell.
func TestZeroIterationDistRoundTrip(t *testing.T) {
	d := core.NewWriteDist(3, 5)
	d.Counts[7] = 9
	var buf bytes.Buffer
	if err := traceio.WriteDist(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := traceio.ReadDist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(d) || back.Iterations != 0 {
		t.Errorf("round-tripped zero-iteration dist differs: iterations %d, equal %v", back.Iterations, back.Equal(d))
	}
}
