// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, on arrays reduced enough to keep `go test -bench=.`
// fast while preserving every qualitative result. Custom metrics report
// the headline number of each experiment (improvement factors, lifetimes,
// overhead percentages) so a bench run doubles as a miniature reproduction:
//
//	go test -bench=. -benchmem
//
// Full-fidelity reproduction (1024×1024, 100 000 iterations) is
// cmd/endurance-report's job.
package pimendure

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"pimendure/internal/baseline"
	"pimendure/internal/core"
	"pimendure/internal/faults"
	"pimendure/internal/fleet"
	"pimendure/internal/lifetime"
	"pimendure/internal/obs"
	"pimendure/internal/program"
	"pimendure/internal/serve"
	"pimendure/internal/stats"
	"pimendure/internal/synth"
	"pimendure/internal/workloads"
	"pimendure/pim"
)

// benchOptions is the reduced array every wear benchmark runs on.
func benchOptions() pim.Options {
	return pim.Options{Lanes: 128, Rows: 1024, PresetOutputs: true, NANDBasis: true}
}

func benchRun() pim.RunConfig {
	return pim.RunConfig{Iterations: 500, RecompileEvery: 100, Seed: 1}
}

func mustMult(b *testing.B, opt pim.Options, bits int) *pim.Benchmark {
	b.Helper()
	m, err := pim.NewParallelMult(opt, bits)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkE1MultSynthesis regenerates §3.1's cost numbers: synthesizing
// the 32-bit in-memory multiply and counting its cell traffic.
func BenchmarkE1MultSynthesis(b *testing.B) {
	var writes, reads int64
	for i := 0; i < b.N; i++ {
		bld := program.NewBuilder(1, 1023)
		x := bld.AllocN(32)
		y := bld.AllocN(32)
		synth.Dadda(bld, synth.NAND, x, y)
		tr := bld.Trace()
		writes = tr.CellWrites(false)
		reads = tr.CellReads()
	}
	if writes != 9824 || reads != 19616 {
		b.Fatalf("§3.1 calibration broken: %d writes, %d reads", writes, reads)
	}
	b.ReportMetric(float64(writes), "writes/mult")
	b.ReportMetric(baseline.WriteAmplification(synth.NAND, 32), "amplification")
}

// BenchmarkE2UpperBounds evaluates Eq. 1 and Eq. 2 across the technology
// catalogue.
func BenchmarkE2UpperBounds(b *testing.B) {
	var days float64
	for i := 0; i < b.N; i++ {
		for _, tech := range pim.Technologies() {
			_ = pim.UpperBoundOps(1024, 1024, tech, 9824)
			days = pim.UpperBoundSeconds(1024, 1024, pim.MRAM()) / 86400
		}
	}
	b.ReportMetric(days, "eq2_days")
}

// BenchmarkFig5LaneProfile computes the per-cell read/write profile of one
// multiplication within a lane.
func BenchmarkFig5LaneProfile(b *testing.B) {
	m := mustMult(b, benchOptions(), 32)
	b.ResetTimer()
	var hottest int64
	for i := 0; i < b.N; i++ {
		w, _ := core.LaneProfile(m.Trace, true, 0)
		for _, c := range w {
			if c > hottest {
				hottest = c
			}
		}
	}
	b.ReportMetric(float64(hottest), "max_writes_cell")
}

// BenchmarkTable2Overhead synthesizes the Mixed2 circuits behind Table 2
// and reports the 32-bit addition overhead (the table's worst case).
func BenchmarkTable2Overhead(b *testing.B) {
	var add32 float64
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{4, 8, 16, 32, 64} {
			_ = synth.ShuffleOverhead(synth.ShuffleMult, bits)
			add32 = synth.ShuffleOverhead(synth.ShuffleAdd, 32)
		}
	}
	b.ReportMetric(add32*100, "add32_overhead_%")
}

// BenchmarkFig11FaultCurve computes the usable-bits collapse exactly on
// a 1024×1024 array.
func BenchmarkFig11FaultCurve(b *testing.B) {
	var usable float64
	for i := 0; i < b.N; i++ {
		pts, err := faults.UsableCurve(1024, 1024, []float64{0.001, 0.01})
		if err != nil {
			b.Fatal(err)
		}
		usable = pts[1].UsableExact
	}
	b.ReportMetric(usable, "usable_at_1%")
}

// benchWear runs a full wear simulation for one strategy and reports the
// lifetime improvement over St×St as a custom metric.
func benchWear(b *testing.B, bench *pim.Benchmark, s pim.Strategy) {
	b.Helper()
	opt := benchOptions()
	rc := benchRun()
	static, err := pim.Run(bench, opt, rc, pim.StaticStrategy, pim.MRAM())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var r *pim.Result
	for i := 0; i < b.N; i++ {
		r, err = pim.Run(bench, opt, rc, s, pim.MRAM())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(static.MaxWritesPerIteration/r.MaxWritesPerIteration, "improvement_x")
	b.ReportMetric(r.Lifetime.Days(), "days_mram")
}

// BenchmarkFig14Multiplication: the multiplication write distribution
// under the static baseline and the paper's best within-lane strategies.
func BenchmarkFig14Multiplication(b *testing.B) {
	bench := mustMult(b, benchOptions(), 32)
	b.Run("StxSt", func(b *testing.B) { benchWear(b, bench, pim.StaticStrategy) })
	b.Run("RaxSt", func(b *testing.B) {
		benchWear(b, bench, pim.Strategy{Within: pim.Random, Between: pim.Static})
	})
	b.Run("RaxSt+Hw", func(b *testing.B) {
		benchWear(b, bench, pim.Strategy{Within: pim.Random, Between: pim.Static, Hw: true})
	})
}

// BenchmarkFig15Convolution: the convolution distribution; between-lane
// random shuffling is what helps here.
func BenchmarkFig15Convolution(b *testing.B) {
	bench, err := pim.NewConvolution(benchOptions(), 4, 3, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("StxSt", func(b *testing.B) { benchWear(b, bench, pim.StaticStrategy) })
	b.Run("RaxRa", func(b *testing.B) {
		benchWear(b, bench, pim.Strategy{Within: pim.Random, Between: pim.Random})
	})
	b.Run("RaxRa+Hw", func(b *testing.B) {
		benchWear(b, bench, pim.Strategy{Within: pim.Random, Between: pim.Random, Hw: true})
	})
}

// BenchmarkFig16DotProduct: the dot-product distribution, imbalanced in
// both dimensions.
func BenchmarkFig16DotProduct(b *testing.B) {
	opt := benchOptions()
	bench, err := pim.NewDotProduct(opt, opt.Lanes, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("StxSt", func(b *testing.B) { benchWear(b, bench, pim.StaticStrategy) })
	b.Run("RaxRa", func(b *testing.B) {
		benchWear(b, bench, pim.Strategy{Within: pim.Random, Between: pim.Random})
	})
	b.Run("RaxRa+Hw", func(b *testing.B) {
		benchWear(b, bench, pim.Strategy{Within: pim.Random, Between: pim.Random, Hw: true})
	})
}

// BenchmarkFig17Sweep runs the full 18-configuration sweep and reports the
// best improvement factor (one bar chart of Fig. 17 per iteration).
func BenchmarkFig17Sweep(b *testing.B) {
	bench := mustMult(b, benchOptions(), 32)
	opt := benchOptions()
	rc := benchRun()
	var best float64
	for i := 0; i < b.N; i++ {
		results, err := pim.Sweep(bench, opt, rc, nil, pim.MRAM())
		if err != nil {
			b.Fatal(err)
		}
		imps, err := pim.Improvements(results)
		if err != nil {
			b.Fatal(err)
		}
		best = imps[0].Factor
	}
	b.ReportMetric(best, "best_improvement_x")
}

// BenchmarkTable3Utilization computes the lane-utilization figures of
// Table 3 from the compiled traces.
func BenchmarkTable3Utilization(b *testing.B) {
	opt := benchOptions()
	mult := mustMult(b, opt, 32)
	conv, err := pim.NewConvolution(opt, 4, 3, 8)
	if err != nil {
		b.Fatal(err)
	}
	dot, err := pim.NewDotProduct(opt, opt.Lanes, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var um, uc, ud float64
	for i := 0; i < b.N; i++ {
		um = mult.Trace.ComputeStats(true).Utilization
		uc = conv.Trace.ComputeStats(true).Utilization
		ud = dot.Trace.ComputeStats(true).Utilization
	}
	if !(um == 1 && uc < um && ud < uc) {
		b.Fatalf("Table 3 utilization ordering broken: %v %v %v", um, uc, ud)
	}
	b.ReportMetric(uc*100, "conv_util_%")
	b.ReportMetric(ud*100, "dot_util_%")
}

// BenchmarkE11RecompilePeriod measures the cost of one wear run at each
// §5 re-mapping period (more epochs = more permutation work).
func BenchmarkE11RecompilePeriod(b *testing.B) {
	bench := mustMult(b, benchOptions(), 32)
	opt := benchOptions()
	for _, period := range []int{500, 100, 50, 10} {
		b.Run(map[int]string{500: "every500", 100: "every100", 50: "every50", 10: "every10"}[period],
			func(b *testing.B) {
				ra := pim.Strategy{Within: pim.Random, Between: pim.Random}
				var r *pim.Result
				var err error
				for i := 0; i < b.N; i++ {
					r, err = pim.Run(bench, opt,
						pim.RunConfig{Iterations: 500, RecompileEvery: period, Seed: 1}, ra, pim.MRAM())
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.MaxWritesPerIteration, "max_writes_iter")
			})
	}
}

// BenchmarkE12Misalignment exercises the Fig. 6 corruption demonstration.
func BenchmarkE12Misalignment(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = baseline.CorruptionRate(1)
	}
	b.ReportMetric(rate*100, "corrupted_%")
}

// BenchmarkE12StartGap measures the standard-memory wear-leveling baseline
// under the adversarial hot-line workload.
func BenchmarkE12StartGap(b *testing.B) {
	var imb float64
	for i := 0; i < b.N; i++ {
		var err error
		imb, err = baseline.HotLineImbalance(256, 2, 100000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(imb, "max_over_mean")
}

// BenchmarkE13LaneSets evaluates §3.3's partitioning workaround.
func BenchmarkE13LaneSets(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		res, err := faults.LaneSets(128, 128, 4, 80)
		if err != nil {
			b.Fatal(err)
		}
		eff = res.EffectiveCapacity
	}
	b.ReportMetric(eff, "effective_capacity")
}

// BenchmarkE14Technology sweeps the Eq. 4 estimate across technologies for
// a fixed distribution.
func BenchmarkE14Technology(b *testing.B) {
	bench := mustMult(b, benchOptions(), 32)
	res, err := pim.Run(bench, benchOptions(), benchRun(), pim.StaticStrategy, pim.MRAM())
	if err != nil {
		b.Fatal(err)
	}
	st := bench.Trace.ComputeStats(true)
	b.ResetTimer()
	var days float64
	for i := 0; i < b.N; i++ {
		for _, tech := range pim.Technologies() {
			m := lifetime.Model{Endurance: tech.Endurance, StepSeconds: tech.SwitchSeconds}
			r, err := m.Estimate(res.MaxWritesPerIteration, st.Steps)
			if err != nil {
				b.Fatal(err)
			}
			days = r.Days()
		}
	}
	b.ReportMetric(days, "projected_days")
}

// --- Ablations (design choices DESIGN.md calls out) ---

// BenchmarkAblationAllocPolicy quantifies how the workspace allocator
// shapes static imbalance: the paper-like rotating next-fit versus the
// adversarial lowest-first reuse.
func BenchmarkAblationAllocPolicy(b *testing.B) {
	for _, lowest := range []bool{false, true} {
		name := "next-fit"
		if lowest {
			name = "lowest-first"
		}
		b.Run(name, func(b *testing.B) {
			opt := benchOptions()
			opt.LowestFirstAlloc = lowest
			bench := mustMult(b, opt, 32)
			var r *pim.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = pim.Run(bench, opt, benchRun(), pim.StaticStrategy, pim.MRAM())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Imbalance, "max_over_mean")
		})
	}
}

// BenchmarkAblationPreset quantifies the CRAM output-preset write cost.
func BenchmarkAblationPreset(b *testing.B) {
	for _, preset := range []bool{false, true} {
		name := "sense-amp"
		if preset {
			name = "preset"
		}
		b.Run(name, func(b *testing.B) {
			opt := benchOptions()
			opt.PresetOutputs = preset
			bench := mustMult(b, opt, 32)
			var r *pim.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = pim.Run(bench, opt, benchRun(), pim.StaticStrategy, pim.MRAM())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.MaxWritesPerIteration, "max_writes_iter")
		})
	}
}

// BenchmarkAblationBasis compares the NAND and minimum-2-input gate bases.
func BenchmarkAblationBasis(b *testing.B) {
	for _, nand := range []bool{true, false} {
		name := "mixed2"
		if nand {
			name = "nand"
		}
		b.Run(name, func(b *testing.B) {
			opt := benchOptions()
			opt.NANDBasis = nand
			bench := mustMult(b, opt, 32)
			var r *pim.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = pim.Run(bench, opt, benchRun(), pim.StaticStrategy, pim.MRAM())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Lifetime.Days(), "days_mram")
		})
	}
}

// BenchmarkAblationEngine compares the factorized wear engine against
// brute-force functional execution on identical inputs.
func BenchmarkAblationEngine(b *testing.B) {
	cfg := workloads.Config{Lanes: 16, Rows: 128, Basis: synth.NAND}
	bench, err := workloads.ParallelMult(cfg, 8)
	if err != nil {
		b.Fatal(err)
	}
	sim := core.SimConfig{Rows: 128, PresetOutputs: true, Iterations: 50, RecompileEvery: 10, Seed: 1}
	strat := core.StrategyConfig{Within: pim.Random, Between: pim.Random, Hw: true}
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Simulate(bench.Trace, sim, strat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.BruteForce(bench.Trace, sim, strat, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHwEngine compares the bounded parallel + memoized +Hw wear
// engine against the retained serial reference on the +Hw half of the
// strategy sweep (the wall-clock-dominating part of Figs. 14–17). The
// "speedup" sub-benchmark times both paths on identical inputs and
// reports the ratio; the engine's epoch memoization alone (St-within
// epochs collapse to one replay, Bs-within rotations cycle with period
// archRows/gcd(step, archRows)) delivers the win even at GOMAXPROCS=1,
// and the worker pool multiplies it on real cores.
func BenchmarkHwEngine(b *testing.B) {
	cfg := workloads.Config{Lanes: 128, Rows: 257, Basis: synth.NAND}
	bench, err := workloads.ParallelMult(cfg, 16)
	if err != nil {
		b.Fatal(err)
	}
	// 256 architectural rows under Hw: the Bs step of 8 cycles after 32
	// epochs, so 128 epochs reuse each rotation 4 times; St-within
	// epochs all collapse into one replay.
	sim := core.SimConfig{Rows: 257, PresetOutputs: true, Iterations: 12800, RecompileEvery: 100, Seed: 1}
	var hwConfigs []core.StrategyConfig
	for _, c := range core.AllConfigs() {
		if c.Hw {
			hwConfigs = append(hwConfigs, c)
		}
	}
	sweep := func(b *testing.B, sim core.SimConfig,
		engine func(*program.Trace, core.SimConfig, core.StrategyConfig) (*core.WriteDist, error)) {
		b.Helper()
		for _, s := range hwConfigs {
			if _, err := engine(bench.Trace, sim, s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b, sim, core.SimulateReference)
		}
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b, sim, core.Simulate)
		}
	})
	b.Run("speedup", func(b *testing.B) {
		var ref, eng time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			sweep(b, sim, core.SimulateReference)
			ref += time.Since(t0)
			t0 = time.Now()
			sweep(b, sim, core.Simulate)
			eng += time.Since(t0)
		}
		b.ReportMetric(float64(ref)/float64(eng), "speedup_x")
	})
	// A single 10 000-iteration epoch (software re-mapping disabled within
	// it): the regime where closed-cycle replay dominates, because every
	// op's per-row visit counts over the whole epoch are computed from one
	// walk of its σ-orbit (length ≤ rows) instead of 10 000 op replays.
	b.Run("long-epoch", func(b *testing.B) {
		longSim := sim
		longSim.Iterations = 10000
		longSim.RecompileEvery = 10000
		var ref, eng time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			sweep(b, longSim, core.SimulateReference)
			ref += time.Since(t0)
			t0 = time.Now()
			sweep(b, longSim, core.Simulate)
			eng += time.Since(t0)
		}
		b.ReportMetric(float64(ref)/float64(eng), "speedup_x")
	})
	// The same sweep with the observability layer recording — what a CLI
	// run pays for its manifest. Disabled-mode cost (the "engine" run
	// above) is the hot path and must stay within the <2% budget; this
	// sub-benchmark quantifies the enabled-mode delta as obs_overhead_x.
	b.Run("engine-obs", func(b *testing.B) {
		obs.Reset()
		obs.Enable()
		defer func() {
			obs.Disable()
			obs.Reset()
		}()
		for i := 0; i < b.N; i++ {
			sweep(b, sim, core.Simulate)
		}
	})
	b.Run("obs-overhead", func(b *testing.B) {
		defer func() {
			obs.Disable()
			obs.Reset()
		}()
		var off, on time.Duration
		for i := 0; i < b.N; i++ {
			obs.Disable()
			t0 := time.Now()
			sweep(b, sim, core.Simulate)
			off += time.Since(t0)
			obs.Enable()
			t0 = time.Now()
			sweep(b, sim, core.Simulate)
			on += time.Since(t0)
		}
		b.ReportMetric(float64(on)/float64(off), "obs_overhead_x")
	})
	// Full live telemetry — counters, span events on the ring, and a
	// per-epoch wear sampler — against the disabled baseline: the honest
	// price of watching a run live. Each emitted sample ends a walker
	// segment and takes one statistics pass over the whole distribution, a
	// fixed cost per sample that `sample_us` reports (extra microseconds
	// per emitted sample). `telemetry_overhead_x` divides that cost by the
	// engine time, so it rises whenever the engine itself gets faster.
	b.Run("engine-telemetry", func(b *testing.B) {
		defer func() {
			obs.Disable()
			obs.DisableEvents()
			obs.Reset()
		}()
		samples := 0
		sampled := func(tr *program.Trace, sim core.SimConfig, s core.StrategyConfig) (*core.WriteDist, error) {
			sim.Sampler = core.NewWearSampler("bench.telemetry."+s.Name(), 10, 1e12)
			d, err := core.Simulate(tr, sim, s)
			samples += sim.Sampler.Series().Len()
			return d, err
		}
		var off, on time.Duration
		for i := 0; i < b.N; i++ {
			obs.Disable()
			obs.DisableEvents()
			t0 := time.Now()
			sweep(b, sim, core.Simulate)
			off += time.Since(t0)
			obs.Enable()
			obs.EnableEvents(obs.DefaultEventCapacity)
			t0 = time.Now()
			sweep(b, sim, sampled)
			on += time.Since(t0)
		}
		b.ReportMetric(float64(on)/float64(off), "telemetry_overhead_x")
		b.ReportMetric(float64(on-off)/float64(samples)/1e3, "sample_us")
	})
	// Cross-check on the benchmark's own inputs: the two engines must be
	// bit-identical here too, or the speedup numbers are meaningless.
	for _, s := range hwConfigs {
		fast, err := core.Simulate(bench.Trace, sim, s)
		if err != nil {
			b.Fatal(err)
		}
		slow, err := core.SimulateReference(bench.Trace, sim, s)
		if err != nil {
			b.Fatal(err)
		}
		if !fast.Equal(slow) {
			b.Fatalf("%s: engines disagree on benchmark inputs", s.Name())
		}
	}
}

// BenchmarkSweep measures pim.Sweep end to end on the shared WearPlan.
// "full18" is the paper-shaped sweep (all 18 configurations,
// RecompileEvery=100) on the reduced bench array; "software-paper" runs
// the 9 software-only configurations at the paper's full §4 scale
// (1024×1024, 100 000 iterations, RecompileEvery=100) on the grouped
// engine alone, and "software-paper-speedup" times that same sweep
// against the retained pre-plan serial engine (core.SimulateReference's
// software path — the engine every software config ran on before the
// WearPlan existed) and reports the ratio as `speedup_x`. The parallel
// multiplication writes only through the full lane mask, so
// "software-partial" times the partial-mask landing instead: each of the
// 9 software configurations on the §4 dot product (1024×1024, 32-bit),
// whose reduction tree writes through ten nested partial masks, at
// 10 000 iterations, as its own sub-benchmark (software-partial/StxRa, …)
// on one plan built outside the timer, so a change to one landing shows
// in its own entry.
func BenchmarkSweep(b *testing.B) {
	b.Run("full18", func(b *testing.B) {
		bench := mustMult(b, benchOptions(), 32)
		rc := pim.RunConfig{Iterations: 2000, RecompileEvery: 100, Seed: 1}
		for i := 0; i < b.N; i++ {
			if _, err := pim.Sweep(bench, benchOptions(), rc, nil, pim.MRAM()); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Paper scale: DefaultOptions' 1024×1024 array, §4's headline run
	// length. The grouped engine pays per unique permutation pair (1000
	// Ra epochs at most) instead of per epoch × hot row × lane.
	paperSim := core.SimConfig{
		Rows: 1024, PresetOutputs: true,
		Iterations: 100000, RecompileEvery: 100, Seed: 1,
	}
	paperMult := func(b *testing.B) *pim.Benchmark {
		b.Helper()
		m, err := pim.NewParallelMult(pim.DefaultOptions(), 32)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	swConfigs := core.SoftwareConfigs()
	b.Run("software-paper", func(b *testing.B) {
		bench := paperMult(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan := core.NewWearPlan(bench.Trace, paperSim.Rows, paperSim.PresetOutputs)
			for _, s := range swConfigs {
				dist, err := plan.Simulate(paperSim, s)
				if err != nil {
					b.Fatal(err)
				}
				// Steady-state discipline: the distribution goes back to
				// the plan's arena, so strategies after the first reuse its
				// counts buffer instead of allocating 8 MB each.
				dist.Release()
			}
		}
	})
	b.Run("software-paper-speedup", func(b *testing.B) {
		bench := paperMult(b)
		b.ResetTimer()
		var ref, eng time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			for _, s := range swConfigs {
				if _, err := core.SimulateReference(bench.Trace, paperSim, s); err != nil {
					b.Fatal(err)
				}
			}
			ref += time.Since(t0)
			t0 = time.Now()
			plan := core.NewWearPlan(bench.Trace, paperSim.Rows, paperSim.PresetOutputs)
			for _, s := range swConfigs {
				dist, err := plan.Simulate(paperSim, s)
				if err != nil {
					b.Fatal(err)
				}
				dist.Release()
			}
			eng += time.Since(t0)
		}
		b.ReportMetric(float64(ref)/float64(eng), "speedup_x")
	})
	b.Run("software-partial", func(b *testing.B) {
		dot, err := pim.NewDotProduct(pim.DefaultOptions(), 1024, 32)
		if err != nil {
			b.Fatal(err)
		}
		sim := paperSim
		sim.Iterations = 10000
		plan := core.NewWearPlan(dot.Trace, sim.Rows, sim.PresetOutputs)
		simulate := func(b *testing.B, s core.StrategyConfig) {
			dist, err := plan.Simulate(sim, s)
			if err != nil {
				b.Fatal(err)
			}
			dist.Release()
		}
		// One untimed pass fills the plan's arena, so each entry times its
		// own landing whatever ran before it.
		for _, s := range swConfigs {
			simulate(b, s)
		}
		for _, s := range swConfigs {
			b.Run(s.Name(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					simulate(b, s)
				}
			})
		}
	})
}

// BenchmarkSweepWorkers measures the full 18-configuration sweep (the
// pim.Sweep bounded pool) at one worker and at GOMAXPROCS workers.
// "parallel" times both on the same inputs and reports their parallel
// efficiency, parallel_eff = t₁ / (t_N × N) for N = GOMAXPROCS: 1 is
// perfect scaling, 1/N no gain from the extra cores. Every entry sweeps
// one PlanCache plan, warmed by untimed sweeps, and releases each
// result, so its allocations do not depend on how many counts buffers
// the workers of a cold plan's arena happen to hold at once.
func BenchmarkSweepWorkers(b *testing.B) {
	bench := mustMult(b, benchOptions(), 32)
	opt := benchOptions()
	n := runtime.GOMAXPROCS(0)
	cache := pim.NewPlanCache(1)
	sweep := func(b *testing.B, workers int) time.Duration {
		rc := benchRun()
		rc.Workers = workers
		// Two collections empty every sync.Pool, among them the JSON
		// encoder behind the cache's fingerprint, so no sweep finds a
		// buffer that an earlier one happened to leave there.
		b.StopTimer()
		runtime.GC()
		runtime.GC()
		b.StartTimer()
		t0 := time.Now()
		results, _, err := cache.Sweep(bench, opt, rc, nil, pim.MRAM())
		if err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(t0)
		for _, r := range results {
			r.Dist.Release()
		}
		return elapsed
	}
	// A worker's scratch bundle grows its +Hw pieces the first time it
	// serves a +Hw run, and which bundle serves which run is up to the
	// scheduler: one warm-up sweep can leave a bundle short, so run three.
	for i := 0; i < 3; i++ {
		sweep(b, n)
	}
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b, 1)
		}
	})
	b.Run("workers=gomaxprocs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b, n)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var t1, tn time.Duration
		for i := 0; i < b.N; i++ {
			t1 += sweep(b, 1)
			tn += sweep(b, n)
		}
		b.ReportMetric(float64(t1)/(float64(tn)*float64(n)), "parallel_eff")
	})
}

// BenchmarkArrayIteration measures the bit-accurate simulator's throughput
// on one full 32-bit multiply iteration across 128 lanes: the scalar
// cell-at-a-time reference runner against the word-parallel packed runner
// (64 lanes per uint64, deferred rank-1 access counting). "speedup" times
// both on identical inputs and reports the ratio.
func BenchmarkArrayIteration(b *testing.B) {
	bench := mustMult(b, benchOptions(), 32)
	sim := core.SimConfig{Rows: 1024, PresetOutputs: true, Iterations: 1}
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.BruteForceReference(bench.Trace, sim, pim.StaticStrategy, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.BruteForce(bench.Trace, sim, pim.StaticStrategy, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("speedup", func(b *testing.B) {
		var scalar, packed time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, _, err := core.BruteForceReference(bench.Trace, sim, pim.StaticStrategy, nil); err != nil {
				b.Fatal(err)
			}
			scalar += time.Since(t0)
			t0 = time.Now()
			if _, _, err := core.BruteForce(bench.Trace, sim, pim.StaticStrategy, nil); err != nil {
				b.Fatal(err)
			}
			packed += time.Since(t0)
		}
		b.ReportMetric(float64(scalar)/float64(packed), "speedup_x")
	})
	// The speedup must not buy divergence: spot-check distributions on the
	// benchmark's own inputs.
	fast, _, err := core.BruteForce(bench.Trace, sim, pim.StaticStrategy, nil)
	if err != nil {
		b.Fatal(err)
	}
	slow, _, err := core.BruteForceReference(bench.Trace, sim, pim.StaticStrategy, nil)
	if err != nil {
		b.Fatal(err)
	}
	if !fast.Equal(slow) {
		b.Fatal("packed and scalar runners disagree on benchmark inputs")
	}
}

// BenchmarkHeatmap measures distribution-to-heatmap conversion.
func BenchmarkHeatmap(b *testing.B) {
	bench := mustMult(b, benchOptions(), 32)
	res, err := pim.Run(bench, benchOptions(), benchRun(), pim.StaticStrategy, pim.MRAM())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pim.Heatmap(res.Dist, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGiniCoV measures the distribution statistics used in
// summaries, on the same counts: gini sorts a float64 copy of them, and
// summarize is the one fused pass behind every Result's Summary (its
// per-cell work is integer only, and it allocates nothing).
func BenchmarkGiniCoV(b *testing.B) {
	bench := mustMult(b, benchOptions(), 32)
	res, err := pim.Run(bench, benchOptions(), benchRun(), pim.StaticStrategy, pim.MRAM())
	if err != nil {
		b.Fatal(err)
	}
	counts := res.Dist.Counts
	b.Run("gini", func(b *testing.B) {
		var g float64
		for i := 0; i < b.N; i++ {
			g = stats.Gini(counts)
		}
		b.ReportMetric(g, "gini")
	})
	b.Run("summarize", func(b *testing.B) {
		var s stats.Summary
		for i := 0; i < b.N; i++ {
			s = stats.Summarize(counts)
		}
		b.ReportMetric(s.CoV, "cov")
	})
}

// BenchmarkBankSweep stripes the multiplication across the 16-bank DDR4
// organization under each scheduling policy, sharing one WearPlan via
// the PlanCache. Each sub-benchmark reports the lifetime scaling over
// the single-bank baseline (scaling_x) and the across-bank wear
// imbalance the mean hides (bank_cov).
func BenchmarkBankSweep(b *testing.B) {
	bench := mustMult(b, benchOptions(), 32)
	opt := benchOptions()
	rc := pim.RunConfig{Iterations: 2000, RecompileEvery: 100, Seed: 1}
	strat := pim.Strategy{Within: pim.Random, Between: pim.Static}
	cache := pim.NewPlanCache(2)
	single, _, err := cache.BankStripe(bench, opt, rc, strat, pim.MRAM(), pim.BankConfig{
		Org: pim.SingleBank(), Policy: pim.RoundRobinBanks,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range pim.BankPolicies() {
		b.Run(policy.String(), func(b *testing.B) {
			var res *pim.StripeResult
			for i := 0; i < b.N; i++ {
				var err error
				res, _, err = cache.BankStripe(bench, opt, rc, strat, pim.MRAM(), pim.BankConfig{
					Org: pim.DDR4Organization(), Policy: policy,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.SystemIterationsToFailure/single.SystemIterationsToFailure, "scaling_x")
			b.ReportMetric(res.BankCoV, "bank_cov")
		})
	}
}

// BenchmarkFleet measures the fleet-survival engine at paper scale: one
// million simulated devices over the 1024×1024 32-bit multiplication
// write distribution. "draws" is the hot path alone — plan, simulation
// and order-statistic collapse built outside the timer — on a single
// worker; it gates the engine's floor of one million device draws per
// second per core and its allocation budget (a fixed handful of
// bookkeeping allocations per sweep point, no per-device or per-batch
// churn). "study" draws the same groups for the four technologies × σ
// {0.3, 0.6} through fleet.SurviveMedians at GOMAXPROCS workers — one
// draw pass per σ serving every technology — and reports devices/sec
// over all eight sweep points. "cold" vs "cached" run a one-point study
// (MRAM, σ 0.3) through pim.PlanCache — a cache miss rebuilds the
// WearPlan from the trace, a hit pays only simulation and draws.
// "speedup" compares grouping plus Survive against the per-cell
// fleet.Model.ReferenceSample at 100 000 devices and gates the ≥20× win
// the order-statistic collapse must deliver.
func BenchmarkFleet(b *testing.B) {
	bench, err := pim.NewParallelMult(pim.DefaultOptions(), 32)
	if err != nil {
		b.Fatal(err)
	}
	paperSim := core.SimConfig{
		Rows: 1024, PresetOutputs: true,
		Iterations: 100000, RecompileEvery: 100, Seed: 1,
	}
	plan := core.NewWearPlan(bench.Trace, paperSim.Rows, paperSim.PresetOutputs)
	dist, err := plan.Simulate(paperSim, pim.StaticStrategy)
	if err != nil {
		b.Fatal(err)
	}
	groups, err := fleet.GroupCounts(dist.Counts, dist.Iterations)
	if err != nil {
		b.Fatal(err)
	}
	model := fleet.Model{MedianEndurance: pim.MRAM().Endurance, Sigma: 0.3}

	b.Run("draws", func(b *testing.B) {
		p := fleet.Params{Devices: 1_000_000, Seed: 1, Workers: 1}
		// Steady state must not allocate per device or per batch: the
		// sample buffer is pooled and the hazard table is cached on the
		// Groups, so a whole sweep point costs a fixed handful of
		// bookkeeping allocations.
		if allocs := testing.AllocsPerRun(3, func() {
			if _, err := model.Survive(groups, fleet.Params{Devices: 100_000, Seed: 1, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}); allocs > 32 {
			b.Fatalf("fleet draw hot path allocates: %v allocs per sweep point, want ≤32", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		t0 := time.Now()
		var res fleet.Result
		for i := 0; i < b.N; i++ {
			res, err = model.Survive(groups, p)
			if err != nil {
				b.Fatal(err)
			}
		}
		rate := float64(p.Devices) * float64(b.N) / time.Since(t0).Seconds()
		if rate < 1e6 {
			b.Fatalf("fleet engine below the 1M devices/sec single-core floor: %.0f devices/sec", rate)
		}
		b.ReportMetric(rate, "devices/sec")
		b.ReportMetric(res.Quantiles[0], "b1_iterations")
	})

	b.Run("study", func(b *testing.B) {
		var medians []float64
		for _, tech := range pim.Technologies() {
			medians = append(medians, tech.Endurance)
		}
		sigmas := []float64{0.3, 0.6}
		p := fleet.Params{Devices: 1_000_000, Seed: 1}
		// Build the σ tables outside the timer: this times the draws.
		for _, sigma := range sigmas {
			if _, err := fleet.SurviveMedians(groups, sigma, medians, fleet.Params{Devices: 1}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			for _, sigma := range sigmas {
				if _, err := fleet.SurviveMedians(groups, sigma, medians, p); err != nil {
					b.Fatal(err)
				}
			}
		}
		points := len(medians) * len(sigmas)
		b.ReportMetric(float64(points*p.Devices*b.N)/time.Since(t0).Seconds(), "devices/sec")
	})

	rc := pim.RunConfig{Iterations: 2000, RecompileEvery: 100, Seed: 1, Workers: 1}
	fc := pim.FleetConfig{Devices: 1_000_000, Sigmas: []float64{0.3}, Seed: 1}
	strategies := []pim.Strategy{pim.StaticStrategy}
	techs := []pim.Technology{pim.MRAM()}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := pim.NewPlanCache(1)
			if _, _, err := cache.Fleet(bench, pim.DefaultOptions(), rc, strategies, techs, fc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := pim.NewPlanCache(1)
		if _, _, err := cache.Fleet(bench, pim.DefaultOptions(), rc, strategies, techs, fc); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, hit, err := cache.Fleet(bench, pim.DefaultOptions(), rc, strategies, techs, fc)
			if err != nil {
				b.Fatal(err)
			}
			if !hit {
				b.Fatal("warmed PlanCache missed on an identical fleet study")
			}
		}
	})

	// The order-statistic win over the per-cell sampler, on a reduced
	// array the reference can still finish: 2048 cells × 100 000 devices
	// is ~2×10⁸ lognormal draws for the reference and 100 000 table
	// inversions for the engine.
	b.Run("speedup", func(b *testing.B) {
		cfg := workloads.Config{Lanes: 16, Rows: 128, Basis: synth.NAND}
		small, err := workloads.ParallelMult(cfg, 8)
		if err != nil {
			b.Fatal(err)
		}
		sim := core.SimConfig{Rows: 128, PresetOutputs: true, Iterations: 200, RecompileEvery: 50, Seed: 1}
		sd, err := core.Simulate(small.Trace, sim, pim.StaticStrategy)
		if err != nil {
			b.Fatal(err)
		}
		m := fleet.Model{MedianEndurance: 1e12, Sigma: 0.5}
		const devices = 100_000
		b.ResetTimer()
		var ref, eng time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			m.ReferenceSample(sd.Counts, sim.Iterations, devices, 1)
			ref += time.Since(t0)
			t0 = time.Now()
			g, err := fleet.GroupCounts(sd.Counts, sim.Iterations)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Survive(g, fleet.Params{Devices: devices, Seed: 1, Workers: 1}); err != nil {
				b.Fatal(err)
			}
			eng += time.Since(t0)
		}
		speedup := float64(ref) / float64(eng)
		if speedup < 20 {
			b.Fatalf("fleet engine only %.1f× over the per-cell ReferenceSample, want ≥20×", speedup)
		}
		b.ReportMetric(speedup, "speedup_x")
	})
}

// BenchmarkServeSweep measures the serving layer end to end over HTTP:
// submit one sweep to internal/serve, poll the job to completion.
// "cached" answers repeat requests from the WearPlan LRU (one untimed
// warm-up request fills it, so every timed request must hit); "cold"
// runs the same requests against a disabled cache, rebuilding the plan
// every time — the gap between the two is what the cache buys a fleet of
// identical clients.
func BenchmarkServeSweep(b *testing.B) {
	body := []byte(`{"benchmark":"mult","bits":16,"lanes":64,"rows":1024,` +
		`"iterations":100,"recompile_every":50,"seed":1,"strategies":["StxSt"]}`)
	for _, mode := range []struct {
		name      string
		cacheSize int
	}{
		{"cached", 32},
		{"cold", -1}, // negative capacity disables the PlanCache
	} {
		b.Run(mode.name, func(b *testing.B) {
			obs.Reset()
			obs.Enable()
			defer func() {
				obs.Disable()
				obs.Reset()
			}()
			srv := serve.New(serve.Config{Workers: 2, QueueDepth: 64, Cache: pim.NewPlanCache(mode.cacheSize)})
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client := ts.Client()
			run := func() {
				resp, err := client.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				var accepted struct {
					Job string `json:"job"`
				}
				err = json.NewDecoder(resp.Body).Decode(&accepted)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 202 {
					b.Fatalf("submit: status %d err %v", resp.StatusCode, err)
				}
				for {
					resp, err := client.Get(ts.URL + "/jobs/" + accepted.Job)
					if err != nil {
						b.Fatal(err)
					}
					var st struct {
						State string `json:"state"`
						Error string `json:"error"`
					}
					err = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
					if err != nil {
						b.Fatal(err)
					}
					if st.State == "done" {
						break
					}
					if st.State == "failed" || st.State == "canceled" {
						b.Fatalf("job finished %s: %s", st.State, st.Error)
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			if mode.cacheSize > 0 {
				run()
				// Scope serve.cache_hits and the serve.job histogram to the
				// timed loop: the warm-up miss must not count.
				obs.Reset()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			hits := obs.GetCounter("serve.cache_hits").Value()
			if mode.cacheSize > 0 && hits != int64(b.N) {
				b.Fatalf("warmed PlanCache missed: %d hits over %d timed requests", hits, b.N)
			}
			b.ReportMetric(float64(hits)/float64(b.N), "cache_hit_rate")
			// Tail latency of the serving path itself, from the server's
			// serve.job histogram — this lands in BENCH_engine.json so
			// benchdiff gates p99 alongside throughput.
			if h := obs.GetDurationHistogram("serve.job"); h.Count() > 0 {
				b.ReportMetric(h.Quantile(0.99)*1000, "p99_ms")
			}
		})
	}
}
