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
// epochs collapse by between map, then by within map inside a unit: St×St
// into one group and St×Bs into the 8-epoch rotation period of 64 lanes.
// +Hw epochs collapse by (within map, length): an St within map makes one
// job per length. Every other configuration keeps its 21 epochs apart —
// Bs within maps over 256 (or 255 +Hw) rows only repeat after 32 (255)
// epochs, and Ra never repeats. (Not parallel: the obs registry is
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
	for _, b := range []*workloads.Benchmark{mult, dot} {
		for _, strat := range core.AllConfigs() {
			units, hits := int64(21), int64(0)
			switch {
			case strat.Hw:
				if strat.Within == mapping.Static {
					units, hits = 2, 19
				}
			case strat == core.Static:
				units, hits = 1, 20
			case strat == core.StrategyConfig{Within: mapping.Static, Between: mapping.ByteShift}:
				units, hits = 8, 13
			}
			c := simCounters(t, b.Trace, sim, strat)
			got := [4]int64{c["core.sw.groups"], c["core.sw.memo_hits"], c["core.hw.replays"], c["core.hw.memo_hits"]}
			want := [4]int64{units, hits, 0, 0}
			if strat.Hw {
				want = [4]int64{0, 0, units, hits}
			}
			if got != want {
				t.Errorf("%s %s: sw groups/memo_hits, hw replays/memo_hits = %v, want %v", b.Name, strat.Name(), got, want)
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
