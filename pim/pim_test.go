package pim_test

import (
	"bytes"
	"testing"

	"pimendure/pim"
)

// testOptions is a small array for fast integration tests.
func testOptions() pim.Options {
	return pim.Options{Lanes: 16, Rows: 128, PresetOutputs: true, NANDBasis: true}
}

func testRun() pim.RunConfig {
	return pim.RunConfig{Iterations: 60, RecompileEvery: 10, Seed: 1}
}

func TestRunProducesLifetime(t *testing.T) {
	opt := testOptions()
	b, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pim.Run(b, opt, testRun(), pim.StaticStrategy, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "multiplication" {
		t.Errorf("benchmark name %q", res.Benchmark)
	}
	if res.Lifetime.Seconds <= 0 || res.Lifetime.IterationsToFailure <= 0 {
		t.Errorf("degenerate lifetime %+v", res.Lifetime)
	}
	if res.Utilization != 1.0 {
		t.Errorf("mult utilization = %v", res.Utilization)
	}
	if res.MaxWritesPerIteration <= 0 {
		t.Error("no writes recorded")
	}
	if res.Imbalance <= 1 {
		t.Errorf("static multiply should be imbalanced, got max/mean %v", res.Imbalance)
	}
}

func TestSweepAll18(t *testing.T) {
	opt := testOptions()
	opt.LowestFirstAlloc = true // adversarial allocator: big, assertable gains
	b, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	results, err := pim.Sweep(b, opt, testRun(), nil, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 18 {
		t.Fatalf("%d results", len(results))
	}
	imp, err := pim.Improvements(results)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted descending; baseline factor exactly 1; best ≥ 1.
	if imp[len(imp)-1].Factor > imp[0].Factor {
		t.Error("improvements not sorted")
	}
	var sawBase bool
	for _, i := range imp {
		if i.Strategy == pim.StaticStrategy {
			sawBase = true
			if i.Factor != 1 {
				t.Errorf("baseline factor = %v", i.Factor)
			}
		}
		if i.Factor < 0.999 {
			t.Errorf("%s worsened lifetime: %v", i.Strategy.Name(), i.Factor)
		}
	}
	if !sawBase {
		t.Error("baseline missing")
	}
	if imp[0].Factor <= 1.05 {
		t.Errorf("best strategy should improve the imbalanced multiply, got %v", imp[0].Factor)
	}
}

func TestImprovementsRequireBaseline(t *testing.T) {
	opt := testOptions()
	b, _ := pim.NewParallelMult(opt, 4)
	ra := pim.Strategy{Within: pim.Random, Between: pim.Random}
	results, err := pim.Sweep(b, opt, testRun(), []pim.Strategy{ra}, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pim.Improvements(results); err == nil {
		t.Error("missing baseline accepted")
	}
}

func TestTechnologyOrdering(t *testing.T) {
	opt := testOptions()
	b, _ := pim.NewParallelMult(opt, 4)
	rc := testRun()
	mram, err := pim.Run(b, opt, rc, pim.StaticStrategy, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	rram, err := pim.Run(b, opt, rc, pim.StaticStrategy, pim.RRAM())
	if err != nil {
		t.Fatal(err)
	}
	// MRAM endures 10⁴× longer than RRAM at the same write distribution.
	ratio := mram.Lifetime.Seconds / rram.Lifetime.Seconds
	if ratio < 0.99e4 || ratio > 1.01e4 {
		t.Errorf("MRAM/RRAM lifetime ratio = %v, want 1e4", ratio)
	}
}

func TestHeatmapExport(t *testing.T) {
	opt := testOptions()
	b, _ := pim.NewParallelMult(opt, 4)
	res, err := pim.Run(b, opt, testRun(), pim.StaticStrategy, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	g, err := pim.Heatmap(res.Dist, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows > 64 || g.Cols > 64 {
		t.Errorf("heatmap %dx%d exceeds cap", g.Rows, g.Cols)
	}
	if g.Max() != 1 {
		t.Errorf("normalized max = %v", g.Max())
	}
	var png, pgm bytes.Buffer
	if err := pim.WriteHeatmapPNG(&png, g, 2); err != nil {
		t.Fatal(err)
	}
	if err := pim.WriteHeatmapPGM(&pgm, g); err != nil {
		t.Fatal(err)
	}
	if png.Len() == 0 || pgm.Len() == 0 {
		t.Error("empty renders")
	}
	// Full resolution (no cap).
	full, err := pim.Heatmap(res.Dist, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rows != opt.Rows || full.Cols != opt.Lanes {
		t.Errorf("full heatmap %dx%d", full.Rows, full.Cols)
	}
}

func TestVerifyAllBenchmarks(t *testing.T) {
	opt := testOptions()
	data := func(slot, lane int) bool { return (slot*7+lane*13)%5 < 2 }
	mult, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	dot, err := pim.NewDotProduct(opt, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := pim.NewConvolution(opt, 4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	add, err := pim.NewVectorAdd(opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	hw := pim.Strategy{Within: pim.Random, Between: pim.ByteShift, Hw: true}
	for _, b := range []*pim.Benchmark{mult, dot, conv, add} {
		if err := pim.Verify(b, opt, pim.StaticStrategy, data); err != nil {
			t.Errorf("%s static: %v", b.Name, err)
		}
		if err := pim.Verify(b, opt, hw, data); err != nil {
			t.Errorf("%s remapped: %v", b.Name, err)
		}
		if err := pim.Verify(b, opt, pim.StaticStrategy, nil); err != nil {
			t.Errorf("%s zero data: %v", b.Name, err)
		}
	}
}

func TestPaperBenchmarksCompile(t *testing.T) {
	opt := pim.Options{Lanes: 8, Rows: 1024, PresetOutputs: true, NANDBasis: true}
	bs, err := pim.PaperBenchmarks(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("%d benchmarks", len(bs))
	}
}

func TestAnalyticHelpers(t *testing.T) {
	opt := pim.DefaultOptions()
	if got := pim.WriteAmplification(opt, 32); got != 9824.0/64 {
		t.Errorf("amplification = %v", got)
	}
	secs := pim.UpperBoundSeconds(1024, 1024, pim.MRAM())
	if secs < 3.07e6 || secs > 3.08e6 {
		t.Errorf("Eq.2 = %v", secs)
	}
	ops := pim.UpperBoundOps(1024, 1024, pim.MRAM(), 9824)
	if ops < 1.06e14 || ops > 1.08e14 {
		t.Errorf("Eq.1 = %v", ops)
	}
	if pim.UsableFraction(1024, 0.01) > 0.1 {
		t.Error("usable fraction should collapse at 1% failures")
	}
	pts, err := pim.FaultCurve(32, 32, []float64{0, 0.01})
	if err != nil || len(pts) != 2 {
		t.Errorf("fault curve: %v %d", err, len(pts))
	}
	if len(pim.Technologies()) == 0 {
		t.Error("no technologies")
	}
}

func TestDefaultOptions(t *testing.T) {
	opt := pim.DefaultOptions()
	if opt.Lanes != 1024 || opt.Rows != 1024 || !opt.PresetOutputs || !opt.NANDBasis {
		t.Errorf("defaults %+v", opt)
	}
}

func TestRunRejectsBadTechnology(t *testing.T) {
	opt := testOptions()
	b, _ := pim.NewParallelMult(opt, 4)
	bad := pim.Technology{Name: "bad"}
	if _, err := pim.Run(b, opt, testRun(), pim.StaticStrategy, bad); err == nil {
		t.Error("invalid technology accepted")
	}
}
