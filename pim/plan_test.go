package pim_test

import (
	"bytes"
	"strings"
	"testing"

	"pimendure/internal/obs"
	"pimendure/pim"
)

// Sweep shares one WearPlan across all 18 strategies; sharing must
// change nothing observable — every sweep result must equal the result
// of an individual Run (which builds its own plan on demand), bit for
// bit on the distribution and exactly on the derived figures.
func TestSweepMatchesIndividualRuns(t *testing.T) {
	opt := pim.Options{Lanes: 8, Rows: 96, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := pim.RunConfig{Iterations: 23, RecompileEvery: 7, Seed: 11, Workers: 3}
	results, err := pim.Sweep(bench, opt, rc, nil, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 18 {
		t.Fatalf("sweep returned %d results, want 18", len(results))
	}
	for _, r := range results {
		solo, err := pim.Run(bench, opt, rc, r.Strategy, pim.MRAM())
		if err != nil {
			t.Fatalf("%s: %v", r.Strategy.Name(), err)
		}
		if !r.Dist.Equal(solo.Dist) {
			t.Errorf("%s: sweep distribution differs from individual Run", r.Strategy.Name())
		}
		if r.MaxWritesPerIteration != solo.MaxWritesPerIteration ||
			r.Utilization != solo.Utilization ||
			r.Lifetime != solo.Lifetime ||
			r.Imbalance != solo.Imbalance {
			t.Errorf("%s: sweep derived figures differ from individual Run", r.Strategy.Name())
		}
	}
}

// With several St×St entries in the input (e.g. concatenated sweeps),
// Improvements must baseline against the first occurrence,
// deterministically — not silently keep the last match.
func TestImprovementsFirstBaselineWins(t *testing.T) {
	ra := pim.Strategy{Within: pim.Random, Between: pim.Random}
	results := []*pim.Result{
		{Strategy: pim.StaticStrategy, MaxWritesPerIteration: 8},
		{Strategy: ra, MaxWritesPerIteration: 2},
		{Strategy: pim.StaticStrategy, MaxWritesPerIteration: 100},
	}
	imps, err := pim.Improvements(results)
	if err != nil {
		t.Fatal(err)
	}
	byStrat := map[pim.Strategy]float64{}
	for _, im := range imps {
		if _, dup := byStrat[im.Strategy]; !dup {
			byStrat[im.Strategy] = im.Factor
		}
	}
	// Baseline 8 (the first St×St): Ra×Ra improves 4×. Against the last
	// occurrence (100) it would report 50×.
	if got := byStrat[ra]; got != 4 {
		t.Errorf("RaxRa improvement = %v, want 4 (first St×St baseline)", got)
	}
	if got := byStrat[pim.StaticStrategy]; got != 1 {
		t.Errorf("first St×St improvement over itself = %v, want 1", got)
	}
}

// Every run of a sampled Sweep carries its heatmap on its own series, so
// concurrent runs never overwrite each other's live view: each one stays
// addressable (and renderable) after the sweep.
func TestSampledSweepRegistersPerSeriesWearPNG(t *testing.T) {
	opt := pim.Options{Lanes: 8, Rows: 96, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := pim.RunConfig{Iterations: 12, RecompileEvery: 4, Seed: 2, Workers: 4, SampleEvery: 1}
	results, err := pim.Sweep(bench, opt, rc, nil, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Wear != nil {
			defer obs.RemoveSeries(r.Wear.Name())
		}
	}
	for _, r := range results {
		name := "wear." + bench.Name + "." + r.Strategy.Name()
		series := obs.FindSeries(name)
		if series == nil {
			t.Errorf("no wear series registered for %s", name)
			continue
		}
		var buf bytes.Buffer
		if err := series.WritePNG(&buf); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if buf.Len() < 8 || string(buf.Bytes()[1:4]) != "PNG" {
			t.Errorf("%s: source did not render a PNG", name)
		}
		if r.Wear == nil || r.Wear.Len() == 0 {
			t.Errorf("%s: no wear series recorded", r.Strategy.Name())
		}
	}
}

// A sampled Run or Sweep that fails returns no Result, so the caller
// holds no handle to the wear series the run registered; the run must
// retire them (and the heatmaps they carry) itself.
func TestFailedSampledRunRetiresSeries(t *testing.T) {
	opt := pim.Options{Lanes: 8, Rows: 96, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "failed-run."
	rc := pim.RunConfig{Iterations: 0, RecompileEvery: 4, SampleEvery: 1, SeriesPrefix: prefix}
	if _, err := pim.Run(bench, opt, rc, pim.StaticStrategy, pim.MRAM()); err == nil {
		t.Fatal("Run with zero iterations did not fail")
	}
	if _, err := pim.Sweep(bench, opt, rc, nil, pim.MRAM()); err == nil {
		t.Fatal("Sweep with zero iterations did not fail")
	}
	for _, series := range obs.AllSeries() {
		if strings.HasPrefix(series.Name(), prefix) {
			t.Errorf("failed run left series %s registered", series.Name())
			obs.RemoveSeries(series.Name())
		}
	}
}

// A sweep that fails for only some strategies returns no results either,
// so the strategies that finished must retire their series too: at 95
// rows the software strategies fit the 95 bit addresses, but +Hw keeps
// one row free and fails.
func TestPartlyFailedSweepRetiresSeries(t *testing.T) {
	opt := pim.Options{Lanes: 8, Rows: 96, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt.Rows = 95
	const prefix = "partly-failed-sweep."
	rc := pim.RunConfig{Iterations: 8, RecompileEvery: 4, SampleEvery: 1, SeriesPrefix: prefix}
	for _, sweep := range []struct {
		name string
		run  func() error
	}{
		{"Sweep", func() error {
			_, err := pim.Sweep(bench, opt, rc, nil, pim.MRAM())
			return err
		}},
		{"PlanCache.Sweep", func() error {
			_, _, err := pim.NewPlanCache(1).Sweep(bench, opt, rc, nil, pim.MRAM())
			return err
		}},
	} {
		if err := sweep.run(); err == nil {
			t.Fatalf("%s: +Hw at 95 rows did not fail", sweep.name)
		}
		for _, series := range obs.AllSeries() {
			if strings.HasPrefix(series.Name(), prefix) {
				t.Errorf("%s: failed sweep left series %s registered", sweep.name, series.Name())
				obs.RemoveSeries(series.Name())
			}
		}
	}
}
