package main

import (
	"fmt"
	"io"

	"pimendure/internal/baseline"
	"pimendure/internal/core"
	"pimendure/internal/device"
	"pimendure/internal/faults"
	"pimendure/internal/lifetime"
	"pimendure/internal/program"
	"pimendure/internal/render"
	"pimendure/internal/report"
	"pimendure/internal/synth"
	"pimendure/internal/workloads"
)

// emitTable writes a table as both Markdown and CSV.
func emitTable(cfg config, base string, t *report.Table) error {
	if err := writeFile(cfg, base+".md", t.WriteMarkdown); err != nil {
		return err
	}
	return writeFile(cfg, base+".csv", t.WriteCSV)
}

// runE1 reproduces §3.1's cost comparison: a 32-bit multiply on a
// conventional architecture versus in-memory, with the per-cell averages
// over 1024 facilitating cells and the write-amplification headline.
func runE1(cfg config) error {
	t := report.NewTable("E1 — cell accesses per 32-bit multiplication (§3.1)",
		"architecture", "cell reads", "cell writes", "reads/cell @1024", "writes/cell @1024", "write amplification")
	conv := baseline.ConvMultiply(32)
	cr, cw, err := baseline.PerCellAverages(conv, 1024)
	if err != nil {
		return err
	}
	t.AddRow("conventional (CPU+ALU)", fmt.Sprint(conv.CellReads), fmt.Sprint(conv.CellWrites),
		report.Fixed(cr, 4), report.Fixed(cw, 4), "1.00×")
	for _, basis := range synth.Bases() {
		pimCost := baseline.PIMMultiply(basis, 32)
		pr, pw, err := baseline.PerCellAverages(pimCost, 1024)
		if err != nil {
			return err
		}
		t.AddRow("PIM ("+basis.Name()+" basis)", fmt.Sprint(pimCost.CellReads), fmt.Sprint(pimCost.CellWrites),
			report.Fixed(pr, 2), report.Fixed(pw, 2),
			report.Times(baseline.WriteAmplification(basis, 32)))
	}
	return emitTable(cfg, "e1_writes_per_op", t)
}

// runE2 reproduces the Eq. 1 / Eq. 2 upper bounds for each device
// technology: total operations and wall-clock time to complete array
// break-down under perfect balancing.
func runE2(cfg config) error {
	t := report.NewTable(
		fmt.Sprintf("E2 — perfectly-balanced upper bounds, %d×%d array (Eqs. 1 and 2)", cfg.rows, cfg.lanes),
		"technology", "endurance", "Eq.1 32-bit mults", "Eq.2 seconds", "Eq.2 days")
	for _, tech := range device.Technologies() {
		ops := lifetime.UpperBoundOps(cfg.rows, cfg.lanes, tech.Endurance, float64(synth.MultiplierGates(synth.NAND, 32)))
		secs := lifetime.UpperBoundSeconds(cfg.rows, cfg.lanes, tech.Endurance, tech.SwitchSeconds)
		t.AddRow(tech.Name, report.Sci(tech.Endurance), report.Sci(ops),
			report.Sci(secs), report.Fixed(secs/lifetime.SecondsPerDay, 2))
	}
	return emitTable(cfg, "e2_upper_bounds", t)
}

// runFig5 emits the per-cell read and write counts one 32-bit multiply
// induces across a lane (Fig. 5), under both allocation policies.
func runFig5(cfg config) error {
	profiles := map[program.AllocPolicy]struct{ w, r []int64 }{}
	var maxLen int
	for _, pol := range []program.AllocPolicy{program.NextFit, program.LowestFirst} {
		wcfg := workloads.Config{Lanes: 1, Rows: cfg.rows, Basis: synth.NAND, Alloc: pol}
		bench, err := workloads.ParallelMult(wcfg, 32)
		if err != nil {
			return err
		}
		w, r := core.LaneProfile(bench.Trace, true, 0)
		profiles[pol] = struct{ w, r []int64 }{w, r}
		if len(w) > maxLen {
			maxLen = len(w)
		}
	}
	return writeFile(cfg, "fig5_lane_profile.csv", func(w io.Writer) error {
		cols := make([][]float64, 5)
		for i := range cols {
			cols[i] = make([]float64, maxLen)
		}
		for i := 0; i < maxLen; i++ {
			cols[0][i] = float64(i)
			nf := profiles[program.NextFit]
			lf := profiles[program.LowestFirst]
			if i < len(nf.w) {
				cols[1][i] = float64(nf.w[i])
				cols[2][i] = float64(nf.r[i])
			}
			if i < len(lf.w) {
				cols[3][i] = float64(lf.w[i])
				cols[4][i] = float64(lf.r[i])
			}
		}
		return render.SeriesCSV(w,
			[]string{"bit_address", "writes_nextfit", "reads_nextfit", "writes_lowestfirst", "reads_lowestfirst"},
			cols...)
	})
}

// runTable2 reproduces Table 2: the extra COPY gates memory-access-aware
// shuffling costs, relative to the computation itself, for multiplication
// and addition across precisions. The overheads come from the analytic
// gate counts; the gate columns count circuits actually synthesized in
// the Mixed2 basis, so a synthesis change that breaks the analytic model
// shows in the table.
func runTable2(cfg config) error {
	t := report.NewTable("Table 2 — shuffle overhead of memory-access-aware re-mapping (%)",
		"bit precision", "multiplication overhead", "addition overhead",
		"mult gates (synth)", "add gates (synth)")
	for _, b := range []int{4, 8, 16, 32, 64} {
		t.AddRow(fmt.Sprint(b),
			report.Pct(synth.ShuffleOverhead(synth.ShuffleMult, b), 2),
			report.Pct(synth.ShuffleOverhead(synth.ShuffleAdd, b), 2),
			fmt.Sprint(synthesizedGates(b, synth.Dadda)),
			fmt.Sprint(synthesizedGates(b, synth.RippleCarryAdd)))
	}
	return emitTable(cfg, "table2_overhead", t)
}

// synthesizedGates builds one b-bit circuit in the Mixed2 basis on a
// scratch lane and counts its gates.
func synthesizedGates(b int, circuit func(*program.Builder, synth.Basis, []program.Bit, []program.Bit) []program.Bit) int {
	bld := program.NewBuilder(1, 64*b*b+256)
	circuit(bld, synth.Mixed2, bld.AllocN(b), bld.AllocN(b))
	n := 0
	for _, op := range bld.Trace().Ops {
		if op.Kind == program.OpGate {
			n++
		}
	}
	return n
}

// runFig11 computes Fig. 11b: the usable fraction of each lane versus the
// fraction of failed cells, exact against the paper's closed form
// (1−f)^lanes, for three square arrays.
func runFig11(cfg config) error {
	fracs := []float64{0, 0.0005, 0.001, 0.002, 0.003, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03, 0.05}
	widths := []int{256, 512, 1024}
	cols := make([][]float64, 1+2*len(widths))
	headers := make([]string, 1+2*len(widths))
	headers[0] = "failed_frac"
	cols[0] = fracs
	for i, n := range widths {
		pts, err := faults.UsableCurve(n, n, fracs)
		if err != nil {
			return err
		}
		exact := make([]float64, len(pts))
		cf := make([]float64, len(pts))
		for j, p := range pts {
			exact[j] = p.UsableExact
			cf[j] = p.UsableClosed
		}
		headers[1+2*i] = fmt.Sprintf("usable_exact_%d", n)
		headers[2+2*i] = fmt.Sprintf("usable_closed_%d", n)
		cols[1+2*i] = exact
		cols[2+2*i] = cf
	}
	return writeFile(cfg, "fig11b_usable.csv", func(w io.Writer) error {
		return render.SeriesCSV(w, headers, cols...)
	})
}

// runLaneSets evaluates §3.3's partitioning workaround: usable capacity and
// effective throughput for 1–8 lane sets at several failure levels.
func runLaneSets(cfg config) error {
	t := report.NewTable("E13 — lane-set partitioning under failed cells (§3.3; exact expectation over uniform failure placement)",
		"failed cells", "sets", "usable fraction", "latency factor", "effective capacity")
	const rows, lanes = 256, 256
	for _, failed := range []int{64, 256, 1024} {
		for _, sets := range []int{1, 2, 4, 8} {
			res, err := faults.LaneSets(rows, lanes, sets, failed)
			if err != nil {
				return err
			}
			t.AddRow(fmt.Sprint(failed), fmt.Sprint(sets),
				report.Fixed(res.UsableFrac, 4), fmt.Sprint(res.LatencyFactor),
				report.Fixed(res.EffectiveCapacity, 4))
		}
	}
	return emitTable(cfg, "e13_lane_sets", t)
}
