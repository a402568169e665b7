package main

import (
	"fmt"

	"pimendure/internal/energy"
	"pimendure/internal/lifetime"
	"pimendure/internal/report"
	"pimendure/internal/system"
	"pimendure/pim"
)

// runEnergy prices the three kernels on each device energy model and
// contrasts the in-memory multiply with the conventional data-movement
// reference (§1's energy-efficiency motivation, made quantitative).
func runEnergy(cfg config) error {
	benches, order, err := benchSet(cfg)
	if err != nil {
		return err
	}
	opt := pimOptions(cfg)
	t := report.NewTable("E17 — energy per benchmark iteration (preset-inclusive)",
		"benchmark", "technology", "reads (J)", "writes (J)", "total (J)", "EDP (J·s)")
	for _, fig := range order {
		b := benches[fig]
		steps := b.Trace.ComputeStats(opt.PresetOutputs).Steps
		for _, m := range energy.Models() {
			br, err := pim.EnergyPerIteration(b, opt, m)
			if err != nil {
				return err
			}
			t.AddRow(b.Name, m.Name, report.Sci(br.ReadJ), report.Sci(br.WriteJ),
				report.Sci(br.Total()), report.Sci(energy.EnergyDelayProduct(br, steps, 3e-9)))
		}
	}

	cmp := report.NewTable("E17 — one 32-bit multiply: in-memory vs conventional",
		"path", "energy (J)", "vs conventional")
	conv := energy.DefaultConv().MultiplyJ(32)
	cmp.AddRow("conventional (move 128 bits + core op)", report.Sci(conv), "1.00×")
	opt1 := pimOptions(cfg)
	opt1.Lanes = 1
	mult1, err := pim.NewParallelMult(opt1, 32)
	if err != nil {
		return err
	}
	for _, m := range energy.Models() {
		br, err := pim.EnergyPerIteration(mult1, opt1, m)
		if err != nil {
			return err
		}
		cmp.AddRow("PIM "+m.Name, report.Sci(br.Total()), report.Times(br.Total()/conv))
	}
	if err := emitTable(cfg, "e17_energy", t); err != nil {
		return err
	}
	return emitTable(cfg, "e17_mult_vs_cpu", cmp)
}

// runVariability quantifies the §4 uniform-endurance caveat as one fleet
// study: per-cell endurance is lognormal around MRAM's median, and the
// table gives the mean and B1/B10/B50 first-failure iterations of a
// 10⁶-device fleet next to the Eq. 4 value.
func runVariability(cfg config) error {
	opt := pimOptions(cfg)
	bench, err := pim.NewParallelMult(opt, 32)
	if err != nil {
		return err
	}
	rc := pim.RunConfig{Iterations: 2000, RecompileEvery: cfg.recompile, Seed: cfg.seed, Workers: cfg.workers}
	fc := pim.FleetConfig{Devices: 1_000_000, Sigmas: []float64{0.25, 0.5, 1.0}, Seed: cfg.seed}
	strategies := []pim.Strategy{pim.StaticStrategy, {Within: pim.Random, Between: pim.Random}}
	points, err := pim.Fleet(bench, opt, rc, strategies, []pim.Technology{pim.MRAM()}, fc)
	if err != nil {
		return err
	}
	t := report.NewTable("E18 — fleet first failure under lognormal endurance variability (32-bit multiply, MRAM median 10¹², 10⁶ devices)",
		"strategy", "sigma", "Eq.4 iterations", "mean", "B1", "B10", "B50")
	for _, p := range points {
		t.AddRow(p.Strategy.Name(), report.Fixed(p.Sigma, 2), report.Sci(p.DeterministicIterations),
			report.Sci(p.MeanIterations), report.Sci(p.Quantiles[0]), report.Sci(p.Quantiles[1]), report.Sci(p.Quantiles[2]))
	}
	return emitTable(cfg, "e18_variability", t)
}

// runChip lifts Eq. 4 to the accelerator level (§4's replacement
// scenario): when must a many-array chip be replaced, with and without
// spare arrays, at server (100%) and embedded (1%) duty cycles.
func runChip(cfg config) error {
	opt := pimOptions(cfg)
	bench, err := pim.NewParallelMult(opt, 32)
	if err != nil {
		return err
	}
	rc := pim.RunConfig{Iterations: cfg.iters, RecompileEvery: cfg.recompile, Seed: cfg.seed, Workers: cfg.workers}
	res, err := pim.Run(bench, opt, rc,
		pim.Strategy{Within: pim.Random, Between: pim.Random, Hw: true}, pim.MRAM())
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("E19 — accelerator replacement time (1024 arrays, per-array life %.1f days, σ=0.3)", res.Lifetime.Days()),
		"spare arrays", "duty cycle", "mean (days)", "p5 (days)", "p95 (days)")
	for _, spare := range []float64{0, 0.1} {
		for _, duty := range []float64{1.0, 0.01} {
			sc := system.Config{Arrays: 1024, SpareFraction: spare, DutyCycle: duty, Sigma: 0.3}
			est, err := system.ChipLifetime(res.Lifetime.Seconds, sc, 400, cfg.seed)
			if err != nil {
				return err
			}
			t.AddRow(report.Pct(spare, 0), report.Pct(duty, 0),
				report.Fixed(est.MeanSeconds/lifetime.SecondsPerDay, 1),
				report.Fixed(est.P05/lifetime.SecondsPerDay, 1),
				report.Fixed(est.P95/lifetime.SecondsPerDay, 1))
		}
	}
	return emitTable(cfg, "e19_chip_lifetime", t)
}
