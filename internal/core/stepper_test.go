package core_test

import (
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/mapping"
	"pimendure/internal/synth"
	"pimendure/internal/workloads"
)

// stepperFixture builds the shared small workload and its plan.
func stepperFixture(t *testing.T) *core.WearPlan {
	t.Helper()
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewWearPlan(mult.Trace, 96, true)
}

// epochLengths splits iters into batch-engine epoch lengths: recompile
// per epoch with a short final epoch.
func epochLengths(iters, recompile int) []int {
	var out []int
	for iters > 0 {
		n := recompile
		if n > iters {
			n = iters
		}
		out = append(out, n)
		iters -= n
	}
	return out
}

// A stepped run must be bit-identical to the batch engine over the same
// epoch sequence, for every strategy configuration and every benchmark
// shape (mult's full masks, dot's and conv's full and partial ones) —
// including an uneven final epoch — and its live MaxWrites must equal the
// batch maximum of every iteration prefix at an epoch boundary.
func TestStepperMatchesSimulate(t *testing.T) {
	sim := core.SimConfig{
		Rows:           96,
		PresetOutputs:  true,
		Iterations:     23,
		RecompileEvery: 7, // 23 % 7 != 0: final epoch is short
		Seed:           42,
	}
	for bench, tr := range smallBenches(t) {
		plan := core.NewWearPlan(tr, sim.Rows, sim.PresetOutputs)
		for _, strat := range core.AllConfigs() {
			name := bench + "/" + strat.Name()
			st, err := plan.NewStepper(sim, strat)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			prefix := 0
			for _, n := range epochLengths(sim.Iterations, sim.RecompileEvery) {
				st.Step(n)
				prefix += n

				ps := sim
				ps.Iterations = prefix
				want, err := plan.Simulate(ps, strat)
				if err != nil {
					t.Fatalf("%s prefix %d: %v", name, prefix, err)
				}
				if got := st.MaxWrites(); got != want.Max() {
					t.Errorf("%s: live MaxWrites after %d iterations = %d, batch max = %d",
						name, prefix, got, want.Max())
				}
			}
			if st.Epoch() != 4 || st.Iterations() != sim.Iterations {
				t.Fatalf("%s: stepper at epoch %d / %d iterations, want 4 / %d",
					name, st.Epoch(), st.Iterations(), sim.Iterations)
			}
			got, err := st.Finish()
			if err != nil {
				t.Fatalf("%s finish: %v", name, err)
			}
			want, err := plan.Simulate(sim, strat)
			if err != nil {
				t.Fatalf("%s batch: %v", name, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s: stepped distribution diverges from batch engine (stepped max %d total %d, batch max %d total %d)",
					name, got.Max(), got.Total(), want.Max(), want.Total())
			}
			if got.Iterations != sim.Iterations || got.StepsPerIteration != want.StepsPerIteration {
				t.Errorf("%s: stepped metadata %d/%d, batch %d/%d",
					name, got.Iterations, got.StepsPerIteration, want.Iterations, want.StepsPerIteration)
			}
		}
	}
}

// The stepper must also agree with the retained serial reference engine
// (not just the parallel engine) for one software and one +Hw strategy,
// on every benchmark shape.
func TestStepperMatchesReference(t *testing.T) {
	sim := core.SimConfig{
		Rows: 96, PresetOutputs: true,
		Iterations: 23, RecompileEvery: 7, Seed: 42,
	}
	for bench, tr := range smallBenches(t) {
		plan := core.NewWearPlan(tr, sim.Rows, sim.PresetOutputs)
		for _, strat := range []core.StrategyConfig{
			{Within: mapping.Random, Between: mapping.Static},
			{Within: mapping.Random, Between: mapping.Static, Hw: true},
		} {
			name := bench + "/" + strat.Name()
			st, err := plan.NewStepper(sim, strat)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, n := range epochLengths(sim.Iterations, sim.RecompileEvery) {
				st.Step(n)
			}
			got, err := st.Finish()
			if err != nil {
				t.Fatalf("%s finish: %v", name, err)
			}
			ref, err := core.SimulateReference(tr, sim, strat)
			if err != nil {
				t.Fatalf("%s reference: %v", name, err)
			}
			if !got.Equal(ref) {
				t.Errorf("%s: stepped distribution diverges from serial reference", name)
			}
		}
	}
}

// Steps of zero or negative length are no-ops that must not advance the
// epoch counter, and a stepper finished without any iterations errors.
func TestStepperEdgeCases(t *testing.T) {
	plan := stepperFixture(t)
	sim := core.SimConfig{Rows: 96, PresetOutputs: true, Iterations: 1, Seed: 1}
	st, err := plan.NewStepper(sim, core.StrategyConfig{Within: mapping.Static, Between: mapping.Static})
	if err != nil {
		t.Fatal(err)
	}
	st.Step(0)
	st.Step(-3)
	if st.Epoch() != 0 || st.Iterations() != 0 || st.MaxWrites() != 0 {
		t.Fatalf("no-op steps advanced the stepper: epoch %d iters %d max %d",
			st.Epoch(), st.Iterations(), st.MaxWrites())
	}
	if _, err := st.Finish(); err == nil {
		t.Fatal("Finish with zero stepped iterations must error")
	}
}
