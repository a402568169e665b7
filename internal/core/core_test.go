package core_test

import (
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/mapping"
	"pimendure/internal/program"
	"pimendure/internal/synth"
	"pimendure/internal/workloads"
)

func TestStrategyConfigNames(t *testing.T) {
	if core.Static.Name() != "StxSt" {
		t.Errorf("static name = %q", core.Static.Name())
	}
	c := core.StrategyConfig{Within: mapping.Random, Between: mapping.ByteShift, Hw: true}
	if c.Name() != "RaxBs+Hw" {
		t.Errorf("name = %q, want RaxBs+Hw", c.Name())
	}
}

func TestAllConfigsEnumeration(t *testing.T) {
	all := core.AllConfigs()
	if len(all) != 18 {
		t.Fatalf("len = %d, want 18", len(all))
	}
	seen := map[string]bool{}
	hwCount := 0
	for _, c := range all {
		if seen[c.Name()] {
			t.Errorf("duplicate config %s", c.Name())
		}
		seen[c.Name()] = true
		if c.Hw {
			hwCount++
		}
	}
	if hwCount != 9 {
		t.Errorf("hw configs = %d, want 9", hwCount)
	}
	if sw := core.SoftwareConfigs(); len(sw) != 9 {
		t.Errorf("software configs = %d, want 9", len(sw))
	}
	if all[0] != core.Static {
		t.Errorf("first config should be StxSt, got %s", all[0].Name())
	}
}

func TestWriteDistBasics(t *testing.T) {
	d := core.NewWriteDist(4, 3)
	d.Counts[1*3+2] = 7
	d.Counts[0] = 3
	d.Iterations = 2
	if d.At(1, 2) != 7 {
		t.Error("At wrong")
	}
	if d.Max() != 7 || d.Total() != 10 {
		t.Errorf("max %d total %d", d.Max(), d.Total())
	}
	o := core.NewWriteDist(4, 3)
	if d.Equal(o) {
		t.Error("distinct dists reported equal")
	}
	o.Counts[5] = 7
	o.Counts[0] = 3
	if !d.Equal(o) {
		t.Error("equal dists reported unequal")
	}
	if d.Equal(core.NewWriteDist(3, 4)) {
		t.Error("different shapes reported equal")
	}
}

func smallBenches(t *testing.T) map[string]*program.Trace {
	t.Helper()
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	out := map[string]*program.Trace{}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	out["mult"] = mult.Trace
	dot, err := workloads.DotProduct(cfg, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["dot"] = dot.Trace
	conv, err := workloads.Convolution(cfg, workloads.ConvConfig{GroupLanes: 4, MultsPerLane: 2, Bits: 3})
	if err != nil {
		t.Fatal(err)
	}
	out["conv"] = conv.Trace
	return out
}

// The load-bearing test of the whole reproduction: the factorized fast
// engine must agree cell for cell with brute-force functional execution,
// for every benchmark shape and all 18 strategy configurations, with and
// without output presetting.
func TestSimulateMatchesBruteForce(t *testing.T) {
	benches := smallBenches(t)
	for name, tr := range benches {
		for _, preset := range []bool{false, true} {
			cfg := core.SimConfig{
				Rows:           96,
				PresetOutputs:  preset,
				Iterations:     23,
				RecompileEvery: 7, // deliberately not dividing 23
				Seed:           42,
			}
			for _, strat := range core.AllConfigs() {
				fast, err := core.Simulate(tr, cfg, strat)
				if err != nil {
					t.Fatalf("%s %s: %v", name, strat.Name(), err)
				}
				slow, _, err := core.BruteForce(tr, cfg, strat, nil)
				if err != nil {
					t.Fatalf("%s %s: %v", name, strat.Name(), err)
				}
				if !fast.Equal(slow) {
					t.Errorf("%s %s preset=%v: engines disagree (fast max %d total %d, brute max %d total %d)",
						name, strat.Name(), preset, fast.Max(), fast.Total(), slow.Max(), slow.Total())
				}
			}
		}
	}
}

// Total writes are conserved: every configuration distributes exactly
// Iterations × CellWrites writes, whatever the permutations do.
func TestTotalWritesInvariant(t *testing.T) {
	tr := smallBenches(t)["dot"]
	cfg := core.SimConfig{Rows: 96, Iterations: 50, RecompileEvery: 10, Seed: 3}
	want := uint64(tr.CellWrites(false)) * 50
	for _, strat := range core.AllConfigs() {
		d, err := core.Simulate(tr, cfg, strat)
		if err != nil {
			t.Fatal(err)
		}
		if d.Total() != want {
			t.Errorf("%s: total = %d, want %d", strat.Name(), d.Total(), want)
		}
	}
}

// Balancing strategies must not increase the hottest cell's count, and
// random shuffling must strictly reduce it for the workspace-imbalanced
// multiply (compiled with the adversarial allocator so the static layout
// is strongly concentrated).
func TestBalancingReducesMax(t *testing.T) {
	wcfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND, Alloc: program.LowestFirst}
	mult, err := workloads.ParallelMult(wcfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := mult.Trace
	cfg := core.SimConfig{Rows: 96, Iterations: 200, RecompileEvery: 10, Seed: 5}
	static, err := core.Simulate(tr, cfg, core.Static)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := core.Simulate(tr, cfg, core.StrategyConfig{Within: mapping.Random, Between: mapping.Static})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Max() >= static.Max() {
		t.Errorf("RaxSt max %d should beat StxSt max %d", ra.Max(), static.Max())
	}
	hw, err := core.Simulate(tr, cfg, core.StrategyConfig{Within: mapping.Random, Between: mapping.Static, Hw: true})
	if err != nil {
		t.Fatal(err)
	}
	if hw.Max() > ra.Max() {
		t.Errorf("adding Hw should not hurt: %d > %d", hw.Max(), ra.Max())
	}
}

// Between-lane balancing alone cannot help the all-lanes-equal multiply
// (§5: "St × Ra and St × Bs do not provide any benefit").
func TestBetweenLaneUselessForMult(t *testing.T) {
	tr := smallBenches(t)["mult"]
	cfg := core.SimConfig{Rows: 96, Iterations: 100, RecompileEvery: 10, Seed: 6}
	static, _ := core.Simulate(tr, cfg, core.Static)
	for _, between := range []mapping.Strategy{mapping.Random, mapping.ByteShift} {
		d, err := core.Simulate(tr, cfg, core.StrategyConfig{Within: mapping.Static, Between: between})
		if err != nil {
			t.Fatal(err)
		}
		if d.Max() != static.Max() {
			t.Errorf("Stx%v max = %d, want %d (no benefit possible)", between, d.Max(), static.Max())
		}
	}
}

// Workspace cells are written many more times than operand cells in
// producing a single result (Fig. 5's shape) — dramatically so under the
// adversarial lowest-first allocator.
func TestLaneProfileShape(t *testing.T) {
	cfg := workloads.Config{Lanes: 4, Rows: 96, Basis: synth.NAND, Alloc: program.LowestFirst}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := mult.Trace
	writes, reads := core.LaneProfile(tr, false, 0)
	if len(writes) != tr.LaneBits || len(reads) != tr.LaneBits {
		t.Fatal("profile length wrong")
	}
	// Operand bits (addresses 0..7 for 4-bit mult) are written exactly
	// once; workspace cells many more times.
	for b := 0; b < 8; b++ {
		if writes[b] <= 1 {
			continue
		}
		// operand rows may be reused as workspace after being freed —
		// but only after the product is read; for this trace operands
		// stay live to the end, so exactly 1 write.
		t.Errorf("operand bit %d written %d times, want 1", b, writes[b])
	}
	var maxW int64
	for _, w := range writes[8:] {
		if w > maxW {
			maxW = w
		}
	}
	if maxW <= 3 {
		t.Errorf("workspace max writes = %d, expected heavy reuse", maxW)
	}
	// Total writes/reads must match the trace totals for one lane.
	var wSum, rSum int64
	for i := range writes {
		wSum += writes[i]
		rSum += reads[i]
	}
	if wSum*int64(tr.Lanes) != tr.CellWrites(false) {
		t.Errorf("profile writes %d×%d lanes != trace %d", wSum, tr.Lanes, tr.CellWrites(false))
	}
	if rSum*int64(tr.Lanes) != tr.CellReads() {
		t.Errorf("profile reads %d×%d lanes != trace %d", rSum, tr.Lanes, tr.CellReads())
	}
}

// LaneProfile must attribute move reads to source lanes: in the
// dot-product, the highest active lane is read by moves but never written
// by them.
func TestLaneProfileMoveAttribution(t *testing.T) {
	tr := smallBenches(t)["dot"]
	// Lane 7 is a source in the first reduction level (lanes 0..3
	// receive from 4..7) and never a destination.
	_, reads7 := core.LaneProfile(tr, false, 7)
	var total int64
	for _, r := range reads7 {
		total += r
	}
	if total == 0 {
		t.Error("source lane shows no reads")
	}
	w0, _ := core.LaneProfile(tr, false, 0)
	w7, _ := core.LaneProfile(tr, false, 7)
	var s0, s7 int64
	for i := range w0 {
		s0 += w0[i]
		s7 += w7[i]
	}
	if s0 <= s7 {
		t.Errorf("reduction lane 0 (%d writes) should out-write lane 7 (%d)", s0, s7)
	}
}

func TestSimConfigValidation(t *testing.T) {
	tr := smallBenches(t)["mult"]
	if _, err := core.Simulate(tr, core.SimConfig{Rows: 1, Iterations: 1}, core.Static); err == nil {
		t.Error("1-row config accepted")
	}
	if _, err := core.Simulate(tr, core.SimConfig{Rows: 96, Iterations: 0}, core.Static); err == nil {
		t.Error("0 iterations accepted")
	}
	// Trace exactly filling rows leaves no spare for Hw.
	tight := core.SimConfig{Rows: tr.LaneBits, Iterations: 1}
	if _, err := core.Simulate(tr, tight, core.StrategyConfig{Hw: true}); err == nil {
		t.Error("Hw with no spare row accepted")
	}
	if _, err := core.Simulate(tr, tight, core.Static); err != nil {
		t.Errorf("exact fit without Hw should work: %v", err)
	}
}

// RecompileEvery ≤ 0 means a single epoch: identical to recompiling every
// Iterations.
func TestNoRecompileEquivalence(t *testing.T) {
	tr := smallBenches(t)["conv"]
	a, err := core.Simulate(tr, core.SimConfig{Rows: 96, Iterations: 30, RecompileEvery: 0, Seed: 9},
		core.StrategyConfig{Within: mapping.Random, Between: mapping.Random})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Simulate(tr, core.SimConfig{Rows: 96, Iterations: 30, RecompileEvery: 30, Seed: 9},
		core.StrategyConfig{Within: mapping.Random, Between: mapping.Random})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("single-epoch runs disagree")
	}
}

// Functional correctness holds across the whole brute-force simulation:
// the benchmark check passes on the final iteration of every config.
func TestBruteForceFunctional(t *testing.T) {
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	bench, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := func(slot, lane int) bool { return (slot+lane)%3 == 0 }
	sim := core.SimConfig{Rows: 96, Iterations: 15, RecompileEvery: 4, Seed: 11}
	for _, strat := range []core.StrategyConfig{
		core.Static,
		{Within: mapping.Random, Between: mapping.Random},
		{Within: mapping.ByteShift, Between: mapping.ByteShift, Hw: true},
	} {
		_, runner, err := core.BruteForce(bench.Trace, sim, strat, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := bench.Check(data, runner.Out); err != nil {
			t.Errorf("%s: %v", strat.Name(), err)
		}
	}
}

// Checksum is the serving layer's dist_fnv. The literals were produced by
// a byte-slice FNV-64a (hash/fnv over each count's 8 little-endian
// bytes), so bench/golden/seed1.json's recorded values stay valid.
func TestWriteDistChecksumPinned(t *testing.T) {
	for _, c := range []struct {
		counts []uint64
		want   string
	}{
		{nil, "cbf29ce484222325"},
		{[]uint64{0, 1, 255, 256, 1<<40 + 7, 1<<64 - 1, 123456789, 0x0102030405060708}, "9543c1bf45800484"},
	} {
		d := &core.WriteDist{Rows: 1, Lanes: len(c.counts), Counts: c.counts}
		if got := d.Checksum(); got != c.want {
			t.Errorf("Checksum(%v) = %s, want %s", c.counts, got, c.want)
		}
	}
}
