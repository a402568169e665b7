// Command pimsim runs one benchmark under one load-balancing configuration
// and reports the resulting write distribution, imbalance, and expected
// array lifetime (Eq. 4). Optionally it writes the distribution heatmap.
//
//	pimsim -bench dot -within Ra -between Bs -hw -iters 10000 -png dot.png
//
// With -sample N it records a per-epoch wear trajectory (exported as
// series_*.{csv,json} on exit), and with -serve addr the run is
// observable live: /metrics (Prometheus text), /series (JSON), and
// /wear.png (the current write-distribution heatmap).
//
//	pimsim -bench mult -iters 100000 -sample 10 -serve localhost:6060
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pimendure/internal/mapping"
	"pimendure/internal/obs"
	"pimendure/internal/stats"
	"pimendure/pim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pimsim: ")

	run := obs.NewRun("pimsim", flag.CommandLine)
	benchName := flag.String("bench", "mult", "kernel: "+strings.Join(pim.KernelNames(), ", "))
	bits := flag.Int("bits", 0, "operand precision (0 = the kernel's default; bnn ignores it)")
	lanes := flag.Int("lanes", 1024, "array lanes")
	rows := flag.Int("rows", 1024, "array rows")
	within := flag.String("within", "St", "within-lane strategy: St, Ra, Bs")
	between := flag.String("between", "St", "between-lane strategy: St, Ra, Bs")
	hw := flag.Bool("hw", false, "enable hardware free-bit renaming")
	iters := flag.Int("iters", 10000, "benchmark iterations")
	recompile := flag.Int("recompile", 100, "software re-mapping period")
	sample := flag.Int("sample", 0, "record wear telemetry every N recompile epochs (0 disables; series exported on exit, live at -serve /series and /wear.png)")
	seed := flag.Int64("seed", 1, "random seed")
	tech := flag.String("tech", "MRAM", "technology: MRAM, RRAM, PCM, MRAM-projected")
	pngPath := flag.String("png", "", "write distribution heatmap PNG to this path")
	distPath := flag.String("dumpdist", "", "save the raw write distribution (JSON) to this path")
	verify := flag.Bool("verify", false, "also run one bit-accurate iteration and check results")
	manifestDir := flag.String("out", "out", "directory for the run manifest")
	flag.Parse()
	if err := run.Start(); err != nil {
		log.Fatal(err)
	}

	opt := pim.Options{Lanes: *lanes, Rows: *rows, PresetOutputs: true, NANDBasis: true}
	bench, params, err := pim.NewNamed(opt, *benchName, pim.KernelParams{Bits: *bits})
	if err != nil {
		log.Fatal(err)
	}
	w, err := mapping.ParseStrategy(*within)
	if err != nil {
		log.Fatal(err)
	}
	b, err := mapping.ParseStrategy(*between)
	if err != nil {
		log.Fatal(err)
	}
	strat := pim.Strategy{Within: w, Between: b, Hw: *hw}

	technology, err := pim.LookupTechnology(*tech)
	if err != nil {
		log.Fatal(err)
	}

	res, err := pim.Run(bench, opt,
		pim.RunConfig{Iterations: *iters, RecompileEvery: *recompile, Seed: *seed, SampleEvery: *sample},
		strat, technology)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark:        %s\n", bench.Description)
	fmt.Printf("strategy:         %s\n", strat.Name())
	fmt.Printf("iterations:       %d (recompile every %d)\n", *iters, *recompile)
	fmt.Printf("lane utilization: %.2f%%\n", res.Utilization*100)
	fmt.Printf("max writes/iter:  %.3f\n", res.MaxWritesPerIteration)
	fmt.Printf("max/mean:         %.3f   CoV: %.3f   Gini: %.3f\n",
		res.Imbalance, res.Summary.CoV, stats.Gini(res.Dist.Counts))
	fmt.Printf("lifetime (%s): %.4g iterations, %.2f days\n",
		technology.Name, res.Lifetime.IterationsToFailure, res.Lifetime.Days())

	if *pngPath != "" {
		grid, err := pim.Heatmap(res.Dist, 256)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*pngPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := pim.WriteHeatmapPNG(f, grid, 2); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("heatmap:          %s\n", *pngPath)
	}

	if *distPath != "" {
		f, err := os.Create(*distPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := pim.SaveDist(f, res.Dist); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("distribution:     %s (render with: heatmap -load %s)\n", *distPath, *distPath)
	}

	if *verify {
		data := func(slot, lane int) bool { return (slot*13+lane*7)%3 == 0 }
		if err := pim.Verify(bench, opt, strat, data); err != nil {
			log.Fatalf("functional verification FAILED: %v", err)
		}
		fmt.Println("functional check: exact")
	}

	if err := run.Finish(*manifestDir, map[string]any{
		"bench": *benchName, "bits": params.Bits, "lanes": *lanes, "rows": *rows,
		"within": *within, "between": *between, "hw": *hw,
		"iters": *iters, "recompile": *recompile, "sample": *sample, "tech": *tech,
	}, *seed, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
