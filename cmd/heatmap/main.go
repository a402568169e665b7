// Command heatmap renders a saved write distribution — one panel of
// Figs. 14–16 — to a PNG and/or PGM file:
//
//	pimsim -bench dot -within Ra -dumpdist dot.json
//	heatmap -load dot.json -pgm dot.pgm
//
// It does not simulate: pimsim -dumpdist writes the distribution (pimsim
// -png renders a run's PNG directly), and endurance-report renders every
// panel of the three figures.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pimendure/internal/obs"
	"pimendure/pim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatmap: ")

	run := obs.NewRun("heatmap", flag.CommandLine)
	dim := flag.Int("dim", 128, "heatmap resolution cap")
	scale := flag.Int("scale", 4, "PNG pixels per cell")
	pngPath := flag.String("png", "heatmap.png", "PNG output path (empty to skip)")
	pgmPath := flag.String("pgm", "", "PGM output path (empty to skip)")
	load := flag.String("load", "", "saved distribution to render (written by pimsim -dumpdist)")
	manifestDir := flag.String("out", "out", "directory for the run manifest")
	flag.Parse()
	if *load == "" {
		fmt.Fprintln(flag.CommandLine.Output(),
			"heatmap: -load is required: save a run with pimsim -dumpdist <file>, then render it with heatmap -load <file> (pimsim -png renders a run directly)")
		flag.Usage()
		os.Exit(2)
	}
	if err := run.Start(); err != nil {
		log.Fatal(err)
	}

	f, err := os.Open(*load)
	if err != nil {
		log.Fatal(err)
	}
	dist, err := pim.LoadDist(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	grid, err := pim.Heatmap(dist, *dim)
	if err != nil {
		log.Fatal(err)
	}
	emit(grid, *pngPath, *pgmPath, *scale)
	if err := run.Finish(*manifestDir, map[string]any{
		"dim": *dim, "scale": *scale, "load": *load,
	}, 0, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// emit renders a normalized grid to the requested files.
func emit(grid *pim.Grid, pngPath, pgmPath string, scale int) {
	write := func(path string, fn func(f *os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := fn(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
	write(pngPath, func(f *os.File) error { return pim.WriteHeatmapPNG(f, grid, scale) })
	write(pgmPath, func(f *os.File) error { return pim.WriteHeatmapPGM(f, grid) })
}
