package core_test

import (
	"runtime"
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/mapping"
	"pimendure/internal/obs"
	"pimendure/internal/program"
	"pimendure/internal/synth"
	"pimendure/internal/workloads"
)

// planMatchesDense cross-checks the plan's write-matrix table (expanded
// by WearPlan.M0) against a dense M0 built straight from the trace the
// way the pre-plan engine did.
func planMatchesDense(t *testing.T, tr *program.Trace, rows int, preset bool) {
	t.Helper()
	p := core.NewWearPlan(tr, rows, preset)
	lanes := tr.Lanes
	dense := make([]uint32, tr.LaneBits*lanes)
	for _, op := range tr.Ops {
		w := op.WritesPerLane(preset)
		if w == 0 {
			continue
		}
		row := int(op.Out)
		tr.Mask(op.Mask).ForEach(func(l int) {
			dense[row*lanes+l] += uint32(w)
		})
	}
	got := p.M0()
	if len(got) != len(dense) {
		t.Fatalf("M0 length %d, want %d", len(got), len(dense))
	}
	for i := range dense {
		if got[i] != dense[i] {
			t.Fatalf("M0[row=%d lane=%d] = %d, dense build = %d",
				i/lanes, i%lanes, got[i], dense[i])
		}
	}
	if st := p.Stats(); st != tr.ComputeStats(preset) {
		t.Errorf("plan stats %+v diverge from trace stats %+v", st, tr.ComputeStats(preset))
	}
}

// The plan must reproduce the dense one-iteration write matrix exactly,
// on both a fully utilized benchmark (all-full masks, pure rank-1 part)
// and a partially utilized one (nonempty partial-mask part).
func TestPlanMatchesDense(t *testing.T) {
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	dot, err := workloads.DotProduct(cfg, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, preset := range []bool{true, false} {
		planMatchesDense(t, mult.Trace, 96, preset)
		planMatchesDense(t, dot.Trace, 96, preset)
	}
	// The parallel multiplication runs at utilization 1: every mask is
	// full, so the whole matrix lives in the rank-1 part and the
	// partial-mask remainder must be empty — the case the full-mask
	// landing is built around.
	p := core.NewWearPlan(mult.Trace, 96, true)
	fullRows, _ := p.FullRowWrites()
	if len(fullRows) == 0 {
		t.Error("parallel mult plan has no full-mask rows")
	}
	if n := p.PartialEntries(); n != 0 {
		t.Errorf("parallel mult plan has %d partial entries, want 0 (all masks full)", n)
	}
	// The dot product reduces across lanes: its plan must carry partial
	// entries, or the partial-mask landing would be untested dead code.
	if n := core.NewWearPlan(dot.Trace, 96, true).PartialEntries(); n == 0 {
		t.Error("dot product plan has no partial entries; expected masked writes")
	}
}

// One shared plan must serve every strategy and stay bit-identical to
// the serial reference for worker counts {1, 3, GOMAXPROCS}, with and
// without a sampler attached — the tentpole's correctness contract.
func TestPlannedEngineWorkerAndSamplerIdentity(t *testing.T) {
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := mult.Trace
	base := core.SimConfig{
		Rows:           96,
		PresetOutputs:  true,
		Iterations:     23,
		RecompileEvery: 7, // short final epoch
		Seed:           42,
	}
	plan := core.NewWearPlan(tr, base.Rows, base.PresetOutputs)
	for _, strat := range core.AllConfigs() {
		ref, err := core.SimulateReference(tr, base, strat)
		if err != nil {
			t.Fatalf("%s reference: %v", strat.Name(), err)
		}
		for _, w := range []int{1, 3, runtime.GOMAXPROCS(0)} {
			sim := base
			sim.Workers = w
			d, err := plan.Simulate(sim, strat)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", strat.Name(), w, err)
			}
			if !d.Equal(ref) {
				t.Errorf("%s workers=%d: planned engine diverges from reference", strat.Name(), w)
			}
			sim.Sampler = core.NewWearSampler("test.plan.wear", 2, 1e6)
			ds, err := plan.Simulate(sim, strat)
			if err != nil {
				t.Fatalf("%s workers=%d sampled: %v", strat.Name(), w, err)
			}
			if !ds.Equal(ref) {
				t.Errorf("%s workers=%d: sampled planned engine diverges from reference", strat.Name(), w)
			}
		}
	}
}

// A plan is bound to its build inputs: simulating a mismatched row
// count, preset policy or foreign trace must fail loudly instead of
// accumulating over the wrong precomputation.
func TestPlanRejectsMismatchedConfig(t *testing.T) {
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := core.NewWearPlan(mult.Trace, 96, true)
	sim := core.SimConfig{Rows: 128, PresetOutputs: true, Iterations: 5}
	if _, err := plan.Simulate(sim, core.Static); err == nil {
		t.Error("plan accepted a mismatched row count")
	}
	sim = core.SimConfig{Rows: 96, PresetOutputs: false, Iterations: 5}
	if _, err := plan.Simulate(sim, core.Static); err == nil {
		t.Error("plan accepted a mismatched preset policy")
	}
}

// simCounters runs one planned simulation under an enabled obs registry,
// checks it against SimulateReference and returns the counters it
// recorded.
func simCounters(t *testing.T, tr *program.Trace, sim core.SimConfig, strat core.StrategyConfig) map[string]int64 {
	t.Helper()
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	d, err := core.Simulate(tr, sim, strat)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.SimulateReference(tr, sim, strat)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(ref) {
		t.Errorf("%s: grouped engine diverges from reference", strat.Name())
	}
	return obs.Capture().Counters
}

// swCounters is simCounters' software (groups, memo_hits) pair.
func swCounters(t *testing.T, tr *program.Trace, sim core.SimConfig, strat core.StrategyConfig) (groups, hits int64) {
	t.Helper()
	c := simCounters(t, tr, sim, strat)
	return c["core.sw.groups"], c["core.sw.memo_hits"]
}

// The walker's epoch grouping, pinned per configuration: 2050 iterations
// recompiled every 100 make 21 epochs, the last one 50 long. Software
// epochs collapse by within map: mult has no partial masks, so it groups
// by within map alone, and dot lands by the side with fewer distinct
// maps, so its St within map (one map, against St×St's one, St×Ra's 21
// and St×Bs's 8-epoch rotation period of 64 lanes) makes one landing
// too. Every St-within configuration is therefore one landing on both
// kernels. Every other software configuration keeps its 21 epochs apart
// — Bs within maps over 256 rows only repeat after 32 epochs, Ra never
// repeats, and a between unit of dot's Bs×St or Bs×Bs sums one landing
// per within map. Every +Hw configuration replays each epoch length (100
// and 50) once and lands its other 19 epochs from those replays; one
// recorded iteration per replay, so the other 2048 of the 2050
// epoch-iterations are saved. (Not parallel: the obs registry is
// process-wide.)
func TestGroupingCounters(t *testing.T) {
	cfg := workloads.Config{Lanes: 64, Rows: 256, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	dot, err := workloads.DotProduct(cfg, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	sim := core.SimConfig{Rows: 256, PresetOutputs: true, Iterations: 2050, RecompileEvery: 100, Seed: 3, Workers: 2}
	names := [6]string{"core.sw.groups", "core.sw.memo_hits", "core.hw.replays", "core.hw.memo_hits",
		"core.hw.replay_iters", "core.hw.replay_iters_saved"}
	for _, b := range []*workloads.Benchmark{mult, dot} {
		for _, strat := range core.AllConfigs() {
			landings, hits := int64(21), int64(0)
			if strat.Within == mapping.Static {
				landings, hits = 1, 20
			}
			want := [6]int64{landings, hits, 0, 0, 0, 0}
			if strat.Hw {
				want = [6]int64{0, 0, 2, 19, 2, 2048}
			}
			c := simCounters(t, b.Trace, sim, strat)
			var got [6]int64
			for i, n := range names {
				got[i] = c[n]
			}
			if got != want {
				t.Errorf("%s %s: %v = %v, want %v", b.Name, strat.Name(), names, got, want)
			}
		}
	}
}

// Bs epoch grouping edge cases: with 96 software rows and the default
// byte step the rotation period is 96/gcd(8,96) = 12 epochs.
// Fewer epochs than the period must produce no memoization hits; an
// epoch count the period does not divide must still collapse to exactly
// `period` groups. (Not parallel: the obs registry is process-wide.)
func TestSwEngineBsGroupingEdgeCases(t *testing.T) {
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := mult.Trace
	strat := core.StrategyConfig{Within: mapping.ByteShift, Between: mapping.Static}

	// 4 epochs < period 12: every rotation is fresh.
	sim := core.SimConfig{Rows: 96, PresetOutputs: true, Iterations: 4, RecompileEvery: 1, Seed: 5}
	groups, hits := swCounters(t, tr, sim, strat)
	if groups != 4 || hits != 0 {
		t.Errorf("epochs<period: groups=%d hits=%d, want 4/0", groups, hits)
	}

	// 30 epochs, period 12 does not divide 30: shifts revisit rotations
	// 0..11, so exactly 12 unique groups absorb 18 repeat epochs.
	sim.Iterations = 30
	groups, hits = swCounters(t, tr, sim, strat)
	if groups != 12 || hits != 18 {
		t.Errorf("period∤epochs: groups=%d hits=%d, want 12/18", groups, hits)
	}

	// St×St is the degenerate family: one group absorbs everything.
	sim.Iterations = 30
	groups, hits = swCounters(t, tr, sim, core.Static)
	if groups != 1 || hits != 29 {
		t.Errorf("StxSt: groups=%d hits=%d, want 1/29", groups, hits)
	}
}

// Landing by the smaller side on a partial-mask kernel: over 96 rows the
// Bs rotation period is 12 epochs, shorter than the 30-epoch run. Bs×Ra
// has 12 within maps against 30 between maps, so its epochs land once per
// rotation through summed lane weights; Ra×Ra ties at 30 and 30 and keeps
// one landing per epoch. Either way the landings and the epochs folded
// into them add up to the run's epochs. (Not parallel: the obs registry
// is process-wide.)
func TestSwEngineLandsBySmallerSide(t *testing.T) {
	dot, err := workloads.DotProduct(workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !core.NewWearPlan(dot.Trace, 96, true).HasPartialMasks() {
		t.Fatal("dot product has no partial-mask writes")
	}
	sim := core.SimConfig{Rows: 96, PresetOutputs: true, Iterations: 30, RecompileEvery: 1, Seed: 5, Workers: 2}
	for _, tc := range []struct {
		strat       core.StrategyConfig
		groups, hit int64
	}{
		{core.StrategyConfig{Within: mapping.ByteShift, Between: mapping.Random}, 12, 18},
		{core.StrategyConfig{Within: mapping.Random, Between: mapping.Random}, 30, 0},
	} {
		groups, hits := swCounters(t, dot.Trace, sim, tc.strat)
		if groups != tc.groups || hits != tc.hit {
			t.Errorf("%s: groups=%d hits=%d, want %d/%d", tc.strat.Name(), groups, hits, tc.groups, tc.hit)
		}
		if groups+hits != int64(sim.Iterations) {
			t.Errorf("%s: groups+hits = %d, want the %d epochs", tc.strat.Name(), groups+hits, sim.Iterations)
		}
	}
}
