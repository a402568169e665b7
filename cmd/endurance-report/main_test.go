package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"pimendure/internal/synth"
)

// readCSV parses one CSV artifact the report wrote.
func readCSV(t *testing.T, cfg config, name string) [][]string {
	t.Helper()
	f, err := os.Open(filepath.Join(cfg.out, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rows
}

// The report is the only producer of the paper's Eq. 1/2 bounds, Table 2,
// Fig. 11b and the §3.3 lane-set table (steps e2, table2, fig11, e13);
// run those steps at the paper's array size, with few Monte Carlo trials,
// and check what they wrote.
func TestPaperTableSteps(t *testing.T) {
	cfg := config{out: t.TempDir(), lanes: 1024, rows: 1024, trials: 20, seed: 1}
	for _, step := range []func(config) error{runE2, runTable2, runFig11, runLaneSets} {
		if err := step(cfg); err != nil {
			t.Fatal(err)
		}
	}

	// Table 2: the published overheads, exact at all five precisions, and
	// synthesized gate counts equal to the analytic model.
	published := map[string][2]string{
		"4": {"25.00%", "76.47%"}, "8": {"10.00%", "67.57%"}, "16": {"4.55%", "63.64%"},
		"32": {"2.17%", "61.78%"}, "64": {"1.06%", "60.88%"},
	}
	t2 := readCSV(t, cfg, "table2_overhead.csv")
	if len(t2) != 1+len(published) {
		t.Fatalf("table2 has %d lines, want header + %d", len(t2), len(published))
	}
	for _, row := range t2[1:] {
		want, ok := published[row[0]]
		if !ok {
			t.Errorf("table2: unexpected precision %q", row[0])
			continue
		}
		if row[1] != want[0] || row[2] != want[1] {
			t.Errorf("table2 %s bits: overheads %s / %s, published %s / %s", row[0], row[1], row[2], want[0], want[1])
		}
		b, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatal(err)
		}
		analytic := []string{fmt.Sprint(synth.ComputeGates(synth.ShuffleMult, b)), fmt.Sprint(synth.ComputeGates(synth.ShuffleAdd, b))}
		if !reflect.DeepEqual(row[3:5], analytic) {
			t.Errorf("table2 %s bits: synthesized gates %v, analytic %v", row[0], row[3:5], analytic)
		}
	}

	// E2: Eq. 1/2 for MRAM on the 1024×1024 array — 32-bit multiplies of
	// 9 824 NAND-basis writes, 3.07e6 s (35.56 days) to break-down.
	e2 := readCSV(t, cfg, "e2_upper_bounds.csv")
	if want := []string{"MRAM", "1e+12", "1.07e+14", "3.07e+06", "35.56"}; len(e2) < 2 || !reflect.DeepEqual(e2[1], want) {
		t.Errorf("e2 MRAM row %v, want %v", e2[1:2], want)
	}

	// Fig. 11b: 12 failed-cell fractions; §3.3: 3 failure levels × 4 sets.
	if fig := readCSV(t, cfg, "fig11b_usable.csv"); len(fig) != 1+12 {
		t.Errorf("fig11b has %d lines, want header + 12", len(fig))
	}
	if ls := readCSV(t, cfg, "e13_lane_sets.csv"); len(ls) != 1+12 {
		t.Errorf("e13 has %d lines, want header + 12", len(ls))
	}
}

// -quick lowers only the flags the command line leaves unset.
func TestQuickKeepsExplicitFlags(t *testing.T) {
	parse := func(args ...string) (config, bool) {
		t.Helper()
		fs := flag.NewFlagSet("endurance-report", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg, quick, err := parseFlags(fs, args)
		if err != nil {
			t.Fatal(err)
		}
		return cfg, quick
	}
	if cfg, quick := parse(); cfg.iters != 100000 || cfg.trials != 1000 || quick {
		t.Errorf("defaults: iters %d trials %d quick %v", cfg.iters, cfg.trials, quick)
	}
	if cfg, quick := parse("-quick", "-lanes", "64"); cfg.iters != 2000 || cfg.trials != 100 || cfg.lanes != 64 || !quick {
		t.Errorf("-quick -lanes 64: iters %d trials %d lanes %d, want 2000 / 100 / 64", cfg.iters, cfg.trials, cfg.lanes)
	}
	if cfg, _ := parse("-quick", "-iters", "400"); cfg.iters != 400 || cfg.trials != 100 {
		t.Errorf("-quick -iters 400: iters %d trials %d, want 400 / 100", cfg.iters, cfg.trials)
	}
	if cfg, _ := parse("-trials", "20", "-quick"); cfg.iters != 2000 || cfg.trials != 20 {
		t.Errorf("-trials 20 -quick: iters %d trials %d, want 2000 / 20", cfg.iters, cfg.trials)
	}
}
