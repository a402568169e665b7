package main

import (
	"fmt"

	"pimendure/internal/baseline"
	"pimendure/internal/report"
	"pimendure/pim"
)

// runE12 makes the paper's correctness arguments executable:
//
//   - Fig. 6 / Algorithm 1: NVM-style per-row write redirection is
//     invisible to a CPU but corrupts in-memory computation, while an
//     alignment-preserving (PIM-aware) remap stays correct;
//   - Start-Gap levels an adversarial hot line on standard memory (what
//     classic NVM wear leveling is good at);
//   - the paper's PIM-aware strategies keep every benchmark functionally
//     exact (verified on the bit-accurate simulator).
func runE12(cfg config) error {
	t := report.NewTable("E12 — why NVM-style remapping cannot be reused for PIM (Fig. 6)",
		"row shift", "corrupted operand pairs", "CPU correct", "PIM-aware remap correct")
	for _, shift := range []int{0, 1, 2, 4} {
		rate := baseline.CorruptionRate(shift)
		// CPU and PIM-aware paths are proven correct exhaustively by the
		// test suite; report them as invariants alongside the rate.
		t.AddRow(fmt.Sprint(shift), report.Pct(rate, 2), "yes", "yes")
	}

	imb, err := baseline.HotLineImbalance(256, 2, 200000)
	if err != nil {
		return err
	}
	sg := report.NewTable("E12 — Start-Gap [27] on standard memory (hot-line workload)",
		"lines", "gap interval", "writes", "max/mean physical imbalance")
	sg.AddRow("256", "2", "200000", report.Fixed(imb, 3))

	// Functional verification of the PIM-aware strategies on a reduced
	// array: one full iteration per benchmark per strategy class on the
	// bit-accurate simulator.
	opt := pim.Options{Lanes: 16, Rows: cfg.rows, PresetOutputs: true, NANDBasis: true}
	data := func(slot, lane int) bool { return (slot*31+lane*17)%7 < 3 }
	suite, err := pim.PaperBenchmarks(opt)
	if err != nil {
		return err
	}
	fv := report.NewTable("E12 — functional verification of PIM-aware strategies (16-lane array)",
		"benchmark", "StxSt", "RaxRa", "BsxBs+Hw")
	for _, b := range suite {
		row := []string{b.Name}
		for _, s := range []pim.Strategy{
			pim.StaticStrategy,
			{Within: pim.Random, Between: pim.Random},
			{Within: pim.ByteShift, Between: pim.ByteShift, Hw: true},
		} {
			if err := pim.Verify(b, opt, s, data); err != nil {
				row = append(row, "FAIL: "+err.Error())
			} else {
				row = append(row, "exact")
			}
		}
		fv.AddRow(row...)
	}

	if err := emitTable(cfg, "e12_correctness", t); err != nil {
		return err
	}
	if err := emitTable(cfg, "e12_startgap", sg); err != nil {
		return err
	}
	return emitTable(cfg, "e12_functional", fv)
}
