package workloads_test

import (
	"math/rand"
	"testing"

	"pimendure/internal/array"
	"pimendure/internal/mapping"
	"pimendure/internal/synth"
	"pimendure/internal/workloads"
)

// smallCfg is a reduced array for fast functional tests.
func smallCfg(lanes, rows int) workloads.Config {
	return workloads.Config{Lanes: lanes, Rows: rows, Basis: synth.NAND}
}

// randomData returns a deterministic pseudo-random data function.
func randomData(seed int64) workloads.DataFunc {
	return func(slot, lane int) bool {
		z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(slot)*0xBF58476D1CE4E5B9 + uint64(lane)*0x94D049BB133111EB
		z ^= z >> 29
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 32
		return z&1 == 1
	}
}

// runBench executes one iteration of a benchmark functionally and applies
// its reference check.
func runBench(t *testing.T, b *workloads.Benchmark, rows int, m array.Mapper, data workloads.DataFunc) {
	t.Helper()
	arr := array.New(array.Config{BitsPerLane: rows, Lanes: b.Trace.Lanes})
	r, err := array.NewRunner(arr, b.Trace, m, array.DataFunc(data))
	if err != nil {
		t.Fatal(err)
	}
	r.RunIteration()
	if err := b.Check(data, r.Out); err != nil {
		t.Errorf("%s: %v", b.Name, err)
	}
}

func TestParallelMultFunctional(t *testing.T) {
	cfg := smallCfg(8, 512)
	b, err := workloads.ParallelMult(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	runBench(t, b, cfg.Rows, array.IdentityMapper(cfg.Rows, cfg.Lanes), randomData(1))
}

func TestParallelMult32BitSingleIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("32-bit multiply on 64 lanes is slow in -short mode")
	}
	cfg := smallCfg(64, 1024)
	b, err := workloads.ParallelMult(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	st := b.Trace.ComputeStats(false)
	// §3.1: the 32-bit multiply itself is 9 824 gates; the benchmark adds
	// 64 operand writes and 64 result reads.
	if st.Gates != 9824 {
		t.Errorf("gates = %d, want 9824", st.Gates)
	}
	if st.Writes != 64 || st.Reads != 64 {
		t.Errorf("io ops = %d writes %d reads, want 64/64", st.Writes, st.Reads)
	}
	if st.Utilization != 1.0 {
		t.Errorf("utilization = %v, want 1.0 (all lanes always active)", st.Utilization)
	}
	runBench(t, b, cfg.Rows, array.IdentityMapper(cfg.Rows, cfg.Lanes), randomData(2))
}

func TestDotProductFunctional(t *testing.T) {
	cfg := smallCfg(16, 768)
	b, err := workloads.DotProduct(cfg, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	runBench(t, b, cfg.Rows, array.IdentityMapper(cfg.Rows, cfg.Lanes), randomData(3))
}

func TestDotProductShorterThanLanes(t *testing.T) {
	cfg := smallCfg(16, 768)
	b, err := workloads.DotProduct(cfg, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	runBench(t, b, cfg.Rows, array.IdentityMapper(cfg.Rows, cfg.Lanes), randomData(4))
	// Lanes 8..15 never participate.
	st := b.Trace.ComputeStats(false)
	if st.Utilization >= 0.5 {
		t.Errorf("utilization = %v, should be < 0.5 with half the lanes idle", st.Utilization)
	}
}

func TestDotProductRejectsBadShapes(t *testing.T) {
	cfg := smallCfg(16, 512)
	if _, err := workloads.DotProduct(cfg, 12, 4); err == nil {
		t.Error("non-power-of-two length accepted")
	}
	if _, err := workloads.DotProduct(cfg, 32, 4); err == nil {
		t.Error("length beyond lanes accepted")
	}
	if _, err := workloads.DotProduct(cfg, 8, 1); err == nil {
		t.Error("1-bit operands accepted")
	}
}

func TestConvolutionFunctional(t *testing.T) {
	cfg := smallCfg(16, 1024)
	b, err := workloads.Convolution(cfg, workloads.ConvConfig{GroupLanes: 4, MultsPerLane: 3, Bits: 6})
	if err != nil {
		t.Fatal(err)
	}
	runBench(t, b, cfg.Rows, array.IdentityMapper(cfg.Rows, cfg.Lanes), randomData(5))
}

func TestConvolutionTwoLaneGroups(t *testing.T) {
	cfg := smallCfg(8, 512)
	b, err := workloads.Convolution(cfg, workloads.ConvConfig{GroupLanes: 2, MultsPerLane: 2, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	runBench(t, b, cfg.Rows, array.IdentityMapper(cfg.Rows, cfg.Lanes), randomData(6))
}

func TestConvolutionRejectsBadShapes(t *testing.T) {
	cfg := smallCfg(15, 512)
	if _, err := workloads.Convolution(cfg, workloads.DefaultConv()); err == nil {
		t.Error("lanes not divisible by group accepted")
	}
	cfg = smallCfg(16, 512)
	if _, err := workloads.Convolution(cfg, workloads.ConvConfig{GroupLanes: 1, MultsPerLane: 3, Bits: 8}); err == nil {
		t.Error("single-lane group accepted")
	}
}

func TestVectorAddFunctional(t *testing.T) {
	cfg := smallCfg(8, 256)
	b, err := workloads.VectorAdd(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	runBench(t, b, cfg.Rows, array.IdentityMapper(cfg.Rows, cfg.Lanes), randomData(7))
	st := b.Trace.ComputeStats(false)
	if st.Gates != synth.RippleCarryGates(synth.NAND, 12) {
		t.Errorf("vector-add gates = %d, want %d", st.Gates, synth.RippleCarryGates(synth.NAND, 12))
	}
}

// Every benchmark stays functionally correct under arbitrary mapping
// configurations — the invariant that §3.2's PIM-aware strategies must
// preserve (and NVM-style remapping breaks).
func TestBenchmarksInvariantUnderMapping(t *testing.T) {
	cfg := smallCfg(16, 640)
	benches := []*workloads.Benchmark{}
	if b, err := workloads.ParallelMult(cfg, 6); err == nil {
		benches = append(benches, b)
	} else {
		t.Fatal(err)
	}
	if b, err := workloads.DotProduct(cfg, 16, 4); err == nil {
		benches = append(benches, b)
	} else {
		t.Fatal(err)
	}
	if b, err := workloads.Convolution(cfg, workloads.ConvConfig{GroupLanes: 4, MultsPerLane: 2, Bits: 4}); err == nil {
		benches = append(benches, b)
	} else {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	for _, b := range benches {
		for _, useHw := range []bool{false, true} {
			rows := cfg.Rows
			arch := rows
			m := array.Mapper{}
			if useHw {
				m.Hw = mapping.NewHwRenamer(rows)
				arch = rows - 1
			}
			m.Within = mapping.RandomPerm(arch, rng)
			m.Between = mapping.RandomPerm(cfg.Lanes, rng)

			arr := array.New(array.Config{BitsPerLane: rows, Lanes: cfg.Lanes, PresetOutputs: true})
			data := randomData(int64(len(b.Name)) * 17)
			r, err := array.NewRunner(arr, b.Trace, m, array.DataFunc(data))
			if err != nil {
				t.Fatalf("%s hw=%v: %v", b.Name, useHw, err)
			}
			for iter := 0; iter < 3; iter++ {
				r.RunIteration()
				if err := b.Check(data, r.Out); err != nil {
					t.Fatalf("%s hw=%v iter %d: %v", b.Name, useHw, iter, err)
				}
				if err := r.Remap(mapping.RandomPerm(arch, rng), mapping.RandomPerm(cfg.Lanes, rng)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestBNNLayerFunctional(t *testing.T) {
	cfg := smallCfg(8, 256)
	b, err := workloads.BNNLayer(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	runBench(t, b, cfg.Rows, array.IdentityMapper(cfg.Rows, cfg.Lanes), randomData(8))
}

// The BNN popcount must stay logarithmic in width: a 64-synapse neuron
// needs a 7-bit counter, not a 64-bit one, so the threshold slots tell us
// the trimming worked.
func TestBNNLayerCounterWidth(t *testing.T) {
	cfg := smallCfg(4, 512)
	b, err := workloads.BNNLayer(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	// 64 activations + 64 weights + 7 threshold bits.
	if got, want := b.Trace.WriteSlots, 64+64+7; got != want {
		t.Errorf("write slots = %d, want %d (counter not trimmed?)", got, want)
	}
	runBench(t, b, cfg.Rows, array.IdentityMapper(cfg.Rows, cfg.Lanes), randomData(9))
}

func TestBNNLayerEdgeThresholds(t *testing.T) {
	cfg := smallCfg(2, 256)
	b, err := workloads.BNNLayer(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	// All-match inputs with threshold 8 (fires) on lane 0, and threshold
	// 9 (doesn't, 9 > max count) encoded via per-lane data.
	data := func(slot, lane int) bool {
		switch {
		case slot < 16: // activations == weights
			return slot%2 == 0
		default: // threshold bits: lane 0 -> 8 (bit 3), lane 1 -> 9 (bits 0,3)
			tb := slot - 16
			if lane == 0 {
				return tb == 3
			}
			return tb == 3 || tb == 0
		}
	}
	runBench(t, b, cfg.Rows, array.IdentityMapper(cfg.Rows, cfg.Lanes), data)
}

func TestBNNLayerRejectsBadShapes(t *testing.T) {
	if _, err := workloads.BNNLayer(smallCfg(4, 256), 1); err == nil {
		t.Error("single-synapse layer accepted")
	}
	if _, err := workloads.BNNLayer(workloads.Config{Lanes: 0, Rows: 8}, 8); err == nil {
		t.Error("invalid config accepted")
	}
	// Capacity exhaustion surfaces as an error, not a panic.
	if _, err := workloads.BNNLayer(smallCfg(4, 20), 64); err == nil {
		t.Error("impossible capacity accepted")
	}
}

// Utilization ordering across the three paper benchmarks (Table 3):
// multiplication 100% > convolution > dot-product.
func TestUtilizationOrdering(t *testing.T) {
	cfg := smallCfg(64, 1024)
	mult, err := workloads.ParallelMult(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := workloads.Convolution(cfg, workloads.ConvConfig{GroupLanes: 4, MultsPerLane: 3, Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	dot, err := workloads.DotProduct(cfg, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	um := mult.Trace.ComputeStats(true).Utilization
	uc := conv.Trace.ComputeStats(true).Utilization
	ud := dot.Trace.ComputeStats(true).Utilization
	if um != 1.0 {
		t.Errorf("mult utilization = %v, want 1.0", um)
	}
	if !(uc < um) || !(ud < uc) {
		t.Errorf("utilization ordering violated: mult %v > conv %v > dot %v expected", um, uc, ud)
	}
}

func TestPaperSuiteSmall(t *testing.T) {
	cfg := smallCfg(8, 900)
	benches, err := workloads.PaperSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("suite has %d benchmarks", len(benches))
	}
	names := map[string]bool{}
	for _, b := range benches {
		names[b.Name] = true
		if b.Description == "" {
			t.Errorf("%s: empty description", b.Name)
		}
		if err := b.Trace.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
	for _, want := range []string{"multiplication", "convolution", "dot-product"} {
		if !names[want] {
			t.Errorf("suite missing %q", want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := workloads.ParallelMult(workloads.Config{Lanes: 0, Rows: 8}, 4); err == nil {
		t.Error("zero lanes accepted")
	}
	if _, err := workloads.ParallelMult(smallCfg(4, 256), 1); err == nil {
		t.Error("1-bit multiply accepted")
	}
	if _, err := workloads.VectorAdd(smallCfg(4, 256), 0); err == nil {
		t.Error("0-bit add accepted")
	}
}
