// Command endurance-report regenerates every table and figure of the
// paper's evaluation into an output directory:
//
//	e1_writes_per_op.{md,csv}    §3.1 conventional-vs-PIM cost table
//	e2_upper_bounds.{md,csv}     Eq. 1 / Eq. 2 perfectly-balanced bounds
//	fig5_lane_profile.csv        Fig. 5 per-cell read/write counts in a lane
//	table2_overhead.{md,csv}     Table 2 COPY-shuffle overhead vs precision
//	fig11b_usable.csv            Fig. 11b usable bits vs failed cells
//	e13_lane_sets.{md,csv}       §3.3 lane-set partitioning trade-off
//	fig14/15/16_<cfg>.{png,pgm}  write-distribution heatmaps, 18 configs each
//	fig14/15/16_summary.{md,csv} per-config distribution statistics
//	fig17_<bench>.{md,csv}       lifetime improvement per configuration
//	table3.{md,csv}              lane utilization + best improvement
//	e11_recompile_sweep.{md,csv} §5 re-mapping frequency sweep
//	e12_correctness.{md,csv}     Fig. 6 misalignment + Start-Gap demos
//	e14_technology.{md,csv}      lifetime across MRAM/RRAM/PCM/projected
//
// Run with -quick for a fast low-fidelity pass; defaults reproduce the
// paper's 100 000-iteration, recompile-every-100 setup on a 1024×1024
// array.
//
// The run is observable while it executes: -sample N records per-epoch
// wear trajectories (exported as series_*.{csv,json}), -serve addr
// exposes /metrics, /series and the live /wear.png heatmap, and -trace
// (on by default) writes a Chrome trace_event timeline of the run's
// stages. See docs/ARCHITECTURE.md, "Telemetry".
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"pimendure/internal/obs"
)

type config struct {
	out       string
	lanes     int
	rows      int
	iters     int
	recompile int
	seed      int64
	trials    int
	heatDim   int
	heatScale int
	workers   int
	sample    int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("endurance-report: ")

	run := obs.NewRun("endurance-report", flag.CommandLine)
	cfg, quick, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if err := run.Start(); err != nil {
		log.Fatal(err)
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	steps := []struct {
		key  string // manifest stage name (under "report/")
		name string
		fn   func(config) error
	}{
		{"e1", "E1  writes per operation", runE1},
		{"e2", "E2  upper bounds", runE2},
		{"fig5", "E3  Fig 5 lane profile", runFig5},
		{"table2", "E4  Table 2 shuffle overhead", runTable2},
		{"fig11", "E5  Fig 11b failed cells", runFig11},
		{"e13", "E13 lane sets", runLaneSets},
		{"sweeps", "E6-E10 strategy sweeps (Figs 14-17, Table 3, E14)", runSweeps},
		{"e11", "E11 recompile-frequency sweep", runRecompileSweep},
		{"e12", "E12 correctness demos", runE12},
		{"e15", "E15 failure timeline", runFailureTimeline},
		{"e16", "E16 Fig 8 byte-access cost", runAccessCost},
		{"e17", "E17 energy analysis", runEnergy},
		{"e18", "E18 endurance variability", runVariability},
		{"e19", "E19 chip-level lifetime", runChip},
		{"e20", "E20 graceful degradation", runGraceful},
	}
	report := obs.StartSpan("report")
	for _, s := range steps {
		t := time.Now()
		sp := report.Child(s.key)
		if err := s.fn(cfg); err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		sp.End()
		log.Printf("%-52s %s", s.name, time.Since(t).Round(time.Millisecond))
	}
	report.End()
	log.Printf("done in %s, results in %s/", time.Since(start).Round(time.Millisecond), cfg.out)
	if err := run.Finish(cfg.out, map[string]any{
		"out": cfg.out, "lanes": cfg.lanes, "rows": cfg.rows,
		"iters": cfg.iters, "recompile": cfg.recompile, "trials": cfg.trials,
		"heatdim": cfg.heatDim, "heatscale": cfg.heatScale, "workers": cfg.workers,
		"sample": cfg.sample,
		"quick":  quick,
	}, cfg.seed, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// parseFlags defines the report's flags on fs and parses args. -quick
// lowers -iters and -trials to the low-fidelity pass, except where args
// set them explicitly.
func parseFlags(fs *flag.FlagSet, args []string) (cfg config, quick bool, err error) {
	fs.BoolVar(&quick, "quick", false, "low-fidelity pass (2 000 iterations, 100 Monte Carlo trials, unless -iters or -trials is given)")
	fs.StringVar(&cfg.out, "out", "out", "output directory")
	fs.IntVar(&cfg.lanes, "lanes", 1024, "array lanes (columns)")
	fs.IntVar(&cfg.rows, "rows", 1024, "array rows (bit addresses per lane)")
	fs.IntVar(&cfg.iters, "iters", 100000, "benchmark iterations per configuration")
	fs.IntVar(&cfg.recompile, "recompile", 100, "software re-mapping period in iterations")
	fs.Int64Var(&cfg.seed, "seed", 1, "random-shuffle seed")
	fs.IntVar(&cfg.trials, "trials", 1000, "Monte Carlo trials for fault experiments")
	fs.IntVar(&cfg.heatDim, "heatdim", 128, "heatmap resolution cap per axis")
	fs.IntVar(&cfg.heatScale, "heatscale", 4, "heatmap PNG pixels per cell")
	fs.IntVar(&cfg.workers, "workers", 0, "worker goroutines for sweeps and the +Hw engine (0 = GOMAXPROCS); results are identical for any value")
	fs.IntVar(&cfg.sample, "sample", 0, "record wear telemetry every N recompile epochs during the sweeps (0 disables; series exported on exit, live at -serve /series and /wear.png)")
	if err := fs.Parse(args); err != nil {
		return cfg, false, err
	}
	if quick {
		given := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
		if !given["iters"] {
			cfg.iters = 2000
		}
		if !given["trials"] {
			cfg.trials = 100
		}
	}
	return cfg, quick, nil
}

// writeFile creates a file under the output directory and streams fn to it.
func writeFile(cfg config, name string, fn func(io.Writer) error) error {
	path := filepath.Join(cfg.out, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// writeBytes writes data to the named file in the output directory.
func writeBytes(cfg config, name string, data []byte) error {
	return writeFile(cfg, name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
