// Command pimasm works with the textual PIM assembly format:
//
//	pimasm dump  -bench mult -bits 8 -lanes 16 -rows 512    # compile a kernel to assembly
//	pimasm check prog.asm                                   # parse + validate
//	pimasm stats prog.asm                                   # gate/latency/traffic summary
//	pimasm run   -pattern 3 prog.asm                        # execute one iteration, print read slots
//	pimasm wear  -rows 512 -iters 1000 prog.asm             # wear-simulate, print imbalance
//
// Flags come before the file argument (standard flag-package order).
//
// Assembly is the format of internal/asm: one op per line, bits b<n>,
// data slots d<n>, lane masks @m<n>.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pimendure/internal/array"
	"pimendure/internal/asm"
	"pimendure/internal/core"
	"pimendure/internal/mapping"
	"pimendure/internal/obs"
	"pimendure/internal/opt"
	"pimendure/internal/program"
	"pimendure/internal/stats"
	"pimendure/pim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pimasm: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: pimasm <dump|check|opt|stats|run|wear> [flags] [file]")
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "dump":
		err = cmdDump(args)
	case "check":
		err = cmdCheck(args)
	case "opt":
		err = cmdOpt(args)
	case "stats":
		err = cmdStats(args)
	case "run":
		err = cmdRun(args)
	case "wear":
		err = cmdWear(args)
	default:
		err = fmt.Errorf("unknown subcommand %q", cmd)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// finishObs completes a subcommand's observability lifecycle: when the
// subcommand succeeded it writes the run manifest (and the -metrics
// table) under out/, like every other CLI.
func finishObs(run *obs.Run, sub string, err error) error {
	if err != nil {
		return err
	}
	return run.Finish("out", map[string]any{"subcommand": sub}, 0, os.Stdout)
}

func loadTrace(fs *flag.FlagSet) (*program.Trace, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected one assembly file argument (flags go before the file)")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return asm.Parse(f)
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	run := obs.NewRun("pimasm", fs)
	benchName := fs.String("bench", "mult", "kernel: "+strings.Join(pim.KernelNames(), ", "))
	bits := fs.Int("bits", 8, "operand precision (bnn ignores it)")
	lanes := fs.Int("lanes", 16, "lanes")
	rows := fs.Int("rows", 512, "rows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := run.Start(); err != nil {
		return err
	}
	opt := pim.Options{Lanes: *lanes, Rows: *rows, PresetOutputs: true, NANDBasis: true}
	bench, _, err := pim.NewNamed(opt, *benchName, pim.KernelParams{Bits: *bits})
	if err != nil {
		return err
	}
	return finishObs(run, "dump", asm.Print(os.Stdout, bench.Trace))
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	run := obs.NewRun("pimasm", fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := run.Start(); err != nil {
		return err
	}
	tr, err := loadTrace(fs)
	if err != nil {
		return err
	}
	fmt.Printf("ok: %d lanes, %d bit addresses, %d ops, %d masks\n",
		tr.Lanes, tr.LaneBits, len(tr.Ops), len(tr.Masks))
	return finishObs(run, "check", nil)
}

func cmdOpt(args []string) error {
	fs := flag.NewFlagSet("opt", flag.ExitOnError)
	run := obs.NewRun("pimasm", fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := run.Start(); err != nil {
		return err
	}
	tr, err := loadTrace(fs)
	if err != nil {
		return err
	}
	opted, st := opt.Optimize(tr, opt.All())
	log.Printf("removed %d gates, rewrote %d inputs (%d passes)",
		st.RemovedGates, st.RewrittenInputs, st.Passes)
	return finishObs(run, "opt", asm.Print(os.Stdout, opted))
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	run := obs.NewRun("pimasm", fs)
	preset := fs.Bool("preset", true, "charge CRAM output presets")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := run.Start(); err != nil {
		return err
	}
	tr, err := loadTrace(fs)
	if err != nil {
		return err
	}
	st := tr.ComputeStats(*preset)
	fmt.Printf("lanes:            %d\n", tr.Lanes)
	fmt.Printf("bit addresses:    %d\n", st.LaneBits)
	fmt.Printf("ops:              %d (%d gates, %d writes, %d reads, %d moves)\n",
		st.Ops, st.Gates, st.Writes, st.Reads, st.Moves)
	fmt.Printf("latency:          %d steps (%.2f µs at 3 ns/step)\n", st.Steps, float64(st.Steps)*3e-3)
	fmt.Printf("cell writes:      %d\n", st.CellWrites)
	fmt.Printf("cell reads:       %d\n", st.CellReads)
	fmt.Printf("lane utilization: %.2f%%\n", st.Utilization*100)
	return finishObs(run, "stats", nil)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	run := obs.NewRun("pimasm", fs)
	rows := fs.Int("rows", 0, "physical rows (0 = trace footprint + 1)")
	pattern := fs.Int64("pattern", 0, "data pattern seed (slot values are pseudorandom bits)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := run.Start(); err != nil {
		return err
	}
	tr, err := loadTrace(fs)
	if err != nil {
		return err
	}
	r := *rows
	if r == 0 {
		r = tr.LaneBits + 1
	}
	arr := array.New(array.Config{BitsPerLane: r, Lanes: tr.Lanes})
	data := func(slot, lane int) bool {
		z := uint64(*pattern)*0x9E3779B97F4A7C15 + uint64(slot)*0xBF58476D1CE4E5B9 + uint64(lane)*0x94D049BB133111EB
		z ^= z >> 31
		return z&1 == 1
	}
	runner, err := array.NewRunner(arr, tr, array.IdentityMapper(r, tr.Lanes), data)
	if err != nil {
		return err
	}
	runner.RunIteration()
	for slot := 0; slot < tr.ReadSlots; slot++ {
		fmt.Printf("d%d:", slot)
		for lane := 0; lane < tr.Lanes; lane++ {
			v := 0
			if runner.Out(slot, lane) {
				v = 1
			}
			fmt.Printf(" %d", v)
		}
		fmt.Println()
	}
	return finishObs(run, "run", nil)
}

func cmdWear(args []string) error {
	fs := flag.NewFlagSet("wear", flag.ExitOnError)
	run := obs.NewRun("pimasm", fs)
	rows := fs.Int("rows", 0, "physical rows (0 = trace footprint + 1)")
	iters := fs.Int("iters", 1000, "iterations")
	within := fs.String("within", "St", "within-lane strategy")
	between := fs.String("between", "St", "between-lane strategy")
	hw := fs.Bool("hw", false, "hardware renaming")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := run.Start(); err != nil {
		return err
	}
	tr, err := loadTrace(fs)
	if err != nil {
		return err
	}
	r := *rows
	if r == 0 {
		r = tr.LaneBits + 1
	}
	strat, err := parseStrategy(*within, *between, *hw)
	if err != nil {
		return err
	}
	dist, err := core.Simulate(tr, core.SimConfig{
		Rows: r, PresetOutputs: true, Iterations: *iters, RecompileEvery: 100, Seed: 1,
	}, strat)
	if err != nil {
		return err
	}
	sum := stats.Summarize(dist.Counts)
	maxPerIter := 0.0
	if dist.Iterations > 0 {
		maxPerIter = float64(sum.Max) / float64(dist.Iterations)
	}
	fmt.Printf("strategy:        %s\n", strat.Name())
	fmt.Printf("max writes/iter: %.3f\n", maxPerIter)
	fmt.Printf("max/mean:        %.3f\n", sum.MaxOverMean())
	fmt.Printf("Gini:            %.3f\n", stats.Gini(dist.Counts))
	return finishObs(run, "wear", nil)
}

func parseStrategy(within, between string, hw bool) (core.StrategyConfig, error) {
	var s core.StrategyConfig
	var err error
	if s.Within, err = mapping.ParseStrategy(within); err != nil {
		return s, err
	}
	if s.Between, err = mapping.ParseStrategy(between); err != nil {
		return s, err
	}
	s.Hw = hw
	return s, nil
}
