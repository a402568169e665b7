package core_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/obs"
	"pimendure/internal/stats"
	"pimendure/internal/synth"
	"pimendure/internal/workloads"
)

// Attaching a sampler must not change the simulation: for all 18
// configurations the sampled engines (epoch-ordered +Hw path included)
// must reproduce the unsampled distribution bit for bit, and the last
// recorded sample must describe exactly the final distribution.
func TestSampledEngineBitIdentical(t *testing.T) {
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
		Workers:        4,
	}
	// One shared plan for every config and run: from the second simulation
	// on, scratch bundles, counts buffers and +Hw job histograms come back
	// dirty from the plan's arena instead of fresh from the allocator, so
	// this loop doubles as the proof that buffer recycling never leaks one
	// run's state into the next.
	plan := core.NewWearPlan(tr, sim.Rows, sim.PresetOutputs)
	for _, strat := range core.AllConfigs() {
		plain, err := plan.Simulate(sim, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		sampled := sim
		sampled.Sampler = core.NewWearSampler("test.wear."+strat.Name(), 2, 1e6)
		d, err := plan.Simulate(sampled, strat)
		if err != nil {
			t.Fatalf("%s sampled: %v", strat.Name(), err)
		}
		if !d.Equal(plain) {
			t.Errorf("%s: sampled engine diverges from unsampled (sampled max %d total %d, plain max %d total %d)",
				strat.Name(), d.Max(), d.Total(), plain.Max(), plain.Total())
		}
		// A second sampled run on the now-warm arena accumulates through
		// recycled job histograms and scratch; bit-identity proves the
		// recycling discipline (histograms returned dirty, zeroed at reuse).
		warm := sim
		warm.Sampler = core.NewWearSampler("test.wear.warm."+strat.Name(), 2, 1e6)
		d2, err := plan.Simulate(warm, strat)
		if err != nil {
			t.Fatalf("%s warm sampled: %v", strat.Name(), err)
		}
		if !d2.Equal(plain) {
			t.Errorf("%s: warm-arena sampled run diverges from cold run", strat.Name())
		}
		d2.Release()
		s := sampled.Sampler.Series()
		if s.Len() == 0 {
			t.Fatalf("%s: no samples recorded", strat.Name())
		}
		last := s.Last()
		cols := s.Columns()
		get := func(name string) float64 {
			for i, c := range cols {
				if c == name {
					return last[i]
				}
			}
			t.Fatalf("%s: series lacks column %q", strat.Name(), name)
			return 0
		}
		if got, want := get("max_writes"), float64(d.Max()); got != want {
			t.Errorf("%s: last sample max_writes = %v, final dist max = %v", strat.Name(), got, want)
		}
		if got, want := get("iterations"), float64(sim.Iterations); got != want {
			t.Errorf("%s: last sample iterations = %v, want %v", strat.Name(), got, want)
		}
		// The fused/windowed fast paths must reproduce the reference
		// statistics on the final distribution exactly: p99's predicted
		// window falls back to an exact scan on a miss, and mean and CoV
		// are finished from the same exact sums as stats.Summarize.
		if got, want := get("p99_writes"), stats.Percentile(d.Counts, 0.99); got != want {
			t.Errorf("%s: last sample p99_writes = %v, want %v", strat.Name(), got, want)
		}
		sum := stats.Summarize(d.Counts)
		if got, want := get("mean_writes"), sum.Mean; got != want {
			t.Errorf("%s: last sample mean_writes = %v, want %v", strat.Name(), got, want)
		}
		if got, want := get("cov"), sum.CoV; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: last sample cov = %v, want %v", strat.Name(), got, want)
		}
		// max_writes is a prefix statistic of a monotone accumulation.
		maxCol := s.Column("max_writes")
		epochCol := s.Column("epoch")
		for i := 1; i < len(maxCol); i++ {
			if maxCol[i] < maxCol[i-1] {
				t.Errorf("%s: max_writes decreases at sample %d (%v -> %v)",
					strat.Name(), i, maxCol[i-1], maxCol[i])
			}
			if epochCol[i] <= epochCol[i-1] {
				t.Errorf("%s: epoch column not strictly increasing at sample %d", strat.Name(), i)
			}
		}
	}
}

// Every sample — not just the last — must be a true prefix of the final
// distribution: the planned engine and the serial reference feed the
// sampler identical epoch prefixes through the same Sample code, so their
// series must agree row for row, column for column, bit for bit. A walker
// that landed an epoch in the wrong inter-sample segment would shift some
// intermediate row while leaving the final distribution intact. Every=10
// exceeds the 4 epochs, so only epochs 0 and 3 are sampled. The three
// benchmark shapes cover traces with full masks only (mult) and with both
// full and partial masks (dot, conv).
func TestSampledSeriesMatchesReferencePerSample(t *testing.T) {
	base := core.SimConfig{
		Rows: 96, PresetOutputs: true,
		Iterations: 23, RecompileEvery: 7, Seed: 42,
	}
	// Sampled epochs of the 4: all; 0, 2, 3; 0, 3.
	samplesAt := map[int]int{1: 4, 2: 3, 10: 2}
	for bench, tr := range smallBenches(t) {
		plan := core.NewWearPlan(tr, base.Rows, base.PresetOutputs)
		for _, strat := range core.AllConfigs() {
			for _, workers := range []int{1, 3} {
				for _, every := range []int{1, 2, 10} {
					name := fmt.Sprintf("%s/%s/w%d/every%d", bench, strat.Name(), workers, every)
					fast := base
					fast.Workers = workers
					fast.Sampler = core.NewWearSampler("test.prefix.fast", every, 1e6)
					d, err := plan.Simulate(fast, strat)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					d.Release()
					ref := base
					ref.Sampler = core.NewWearSampler("test.prefix.ref", every, 1e6)
					if _, err := core.SimulateReference(tr, ref, strat); err != nil {
						t.Fatalf("%s reference: %v", name, err)
					}
					got, want := fast.Sampler.Series().Samples(), ref.Sampler.Series().Samples()
					obs.RemoveSeries(fast.Sampler.Series().Name())
					obs.RemoveSeries(ref.Sampler.Series().Name())
					if len(got) != len(want) || len(want) != samplesAt[every] {
						t.Fatalf("%s: %d samples, reference has %d, want %d", name, len(got), len(want), samplesAt[every])
					}
					cols := fast.Sampler.Series().Columns()
					for i := range want {
						for c := range want[i] {
							if math.Float64bits(got[i][c]) != math.Float64bits(want[i][c]) {
								t.Errorf("%s: sample %d column %s = %v, reference %v",
									name, i, cols[c], got[i][c], want[i][c])
							}
						}
					}
				}
			}
		}
	}
}

// The serial reference engine accepts the same sampler hook, with the
// same last-sample contract, for both software and +Hw strategies.
func TestSamplerOnReferenceEngine(t *testing.T) {
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []core.StrategyConfig{
		core.Static,
		{Within: core.Static.Within, Between: core.Static.Between, Hw: true},
	} {
		sim := core.SimConfig{
			Rows: 96, PresetOutputs: true,
			Iterations: 12, RecompileEvery: 5, Seed: 1,
			Sampler: core.NewWearSampler("test.ref."+strat.Name(), 1, 0),
		}
		d, err := core.SimulateReference(mult.Trace, sim, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		s := sim.Sampler.Series()
		// Every=1 samples every epoch: ceil(12/5) = 3.
		if s.Len() != 3 {
			t.Fatalf("%s: got %d samples, want 3", strat.Name(), s.Len())
		}
		if got, want := s.Last()[2], float64(d.Max()); got != want {
			t.Errorf("%s: last max_writes = %v, want %v", strat.Name(), got, want)
		}
		// Endurance 0: projections are NaN, dead-cell count zero.
		if !math.IsNaN(s.Last()[7]) {
			t.Errorf("%s: projected iterations without endurance = %v, want NaN", strat.Name(), s.Last()[7])
		}
	}
}

// The sampling cadence is every Every-th epoch plus always the final
// epoch, so a live observer sees the trajectory end exactly at the
// final distribution.
func TestSamplerCadence(t *testing.T) {
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	sim := core.SimConfig{
		Rows: 96, PresetOutputs: true,
		Iterations: 60, RecompileEvery: 5, Seed: 1, // 12 epochs
		Sampler: core.NewWearSampler("test.cadence", 5, 1e6),
	}
	if _, err := core.Simulate(mult.Trace, sim, core.Static); err != nil {
		t.Fatal(err)
	}
	got := sim.Sampler.Series().Column("epoch")
	want := []float64{0, 5, 10, 11} // 0, Every, 2·Every, final
	if len(got) != len(want) {
		t.Fatalf("sampled epochs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sampled epochs %v, want %v", got, want)
		}
	}
}

// The heatmap snapshot follows the samples: WritePNG errors before the
// first sample and produces a PNG afterwards.
func TestSamplerWritePNG(t *testing.T) {
	s := core.NewWearSampler("test.png", 1, 1e6)
	var buf bytes.Buffer
	if err := s.WritePNG(&buf); err == nil {
		t.Fatal("WritePNG before any sample should error")
	}
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	sim := core.SimConfig{
		Rows: 96, PresetOutputs: true,
		Iterations: 4, RecompileEvery: 2, Seed: 1,
		Sampler: s,
	}
	if _, err := core.Simulate(mult.Trace, sim, core.Static); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePNG(&buf); err != nil {
		t.Fatalf("WritePNG after sampling: %v", err)
	}
	if buf.Len() < 8 || string(buf.Bytes()[1:4]) != "PNG" {
		t.Error("WritePNG output is not a PNG")
	}
}
