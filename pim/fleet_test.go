package pim_test

import (
	"math"
	"reflect"
	"testing"

	"pimendure/internal/obs"
	"pimendure/pim"
)

func fleetOptions() pim.Options {
	return pim.Options{Lanes: 16, Rows: 512, PresetOutputs: true, NANDBasis: true}
}

func fleetBench(t *testing.T) *pim.Benchmark {
	t.Helper()
	b, err := pim.NewParallelMult(fleetOptions(), 8)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A small but non-trivial study: point ordering, quantile ordering,
// Eq. 4 agreement, the common-random-numbers property that a
// technology change only rescales every sample by its median ratio, and
// the §4 variability caveat: with many competing cells the fleet mean
// undercuts Eq. 4, and the mean and every B-life fall as σ rises.
func TestFleetStudy(t *testing.T) {
	opt := fleetOptions()
	bench := fleetBench(t)
	rc := pim.RunConfig{Iterations: 300, RecompileEvery: 50, Seed: 7, Workers: 1}
	strategies := []pim.Strategy{
		pim.StaticStrategy,
		{Within: pim.Random, Between: pim.Random, Hw: true},
	}
	techs := []pim.Technology{pim.MRAM(), pim.RRAM()}
	fc := pim.FleetConfig{Devices: 20000, Sigmas: []float64{0.3, 0.6}, Seed: 11}
	points, err := pim.Fleet(bench, opt, rc, strategies, techs, fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(strategies)*len(techs)*len(fc.Sigmas) {
		t.Fatalf("got %d points, want %d", len(points), len(strategies)*len(techs)*len(fc.Sigmas))
	}
	i := 0
	for _, s := range strategies {
		for _, tech := range techs {
			for _, sigma := range fc.Sigmas {
				p := points[i]
				i++
				if p.Strategy != s || p.Technology.Name != tech.Name || p.Sigma != sigma {
					t.Fatalf("point %d out of order: %s/%s/σ=%v", i-1, p.Strategy.Name(), p.Technology.Name, p.Sigma)
				}
				if p.Devices != fc.Devices || p.Benchmark != bench.Name {
					t.Errorf("point %d population/benchmark mismatch", i-1)
				}
				if p.Groups <= 0 || p.Cells < p.Groups {
					t.Errorf("point %d implausible collapse: %d groups, %d cells", i-1, p.Groups, p.Cells)
				}
				// Default quantiles are B1 < B10 < B50, all positive.
				if len(p.Quantiles) != 3 {
					t.Fatalf("point %d: %d quantiles", i-1, len(p.Quantiles))
				}
				if !(p.Quantiles[0] > 0 && p.Quantiles[0] < p.Quantiles[1] && p.Quantiles[1] < p.Quantiles[2]) {
					t.Errorf("point %d B-lives disordered: %v", i-1, p.Quantiles)
				}
				if p.Seconds(1) != float64(p.StepsPerIteration)*tech.SwitchSeconds {
					t.Errorf("point %d Seconds conversion wrong", i-1)
				}
				if !(p.MeanIterations < p.DeterministicIterations) {
					t.Errorf("point %d: mean %g does not undercut Eq. 4 %g", i-1, p.MeanIterations, p.DeterministicIterations)
				}
				if sigma == fc.Sigmas[0] {
					continue
				}
				prev := points[i-2]
				if !(p.MeanIterations < prev.MeanIterations) {
					t.Errorf("point %d: mean %g at σ=%v, %g at σ=%v", i-1, p.MeanIterations, sigma, prev.MeanIterations, prev.Sigma)
				}
				for q := range p.Quantiles {
					if !(p.Quantiles[q] < prev.Quantiles[q]) {
						t.Errorf("point %d: B-life %d is %g at σ=%v, %g at σ=%v", i-1, q, p.Quantiles[q], sigma, prev.Quantiles[q], prev.Sigma)
					}
				}
			}
		}
	}

	// Eq. 4 agreement: DeterministicIterations must equal the Run path's
	// Endurance / MaxWritesPerIteration for the same strategy.
	for si, s := range strategies {
		res, err := pim.Run(bench, opt, rc, s, techs[0])
		if err != nil {
			t.Fatal(err)
		}
		want := techs[0].Endurance / res.MaxWritesPerIteration
		got := points[si*len(techs)*len(fc.Sigmas)].DeterministicIterations
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: deterministic %g, Eq.4 %g", s.Name(), got, want)
		}
	}

	// Common random numbers: with one seed per study, switching MRAM to
	// RRAM at fixed strategy × σ rescales every sample by the endurance
	// ratio, so the B-lives and mean scale exactly (to rounding).
	ratio := techs[0].Endurance / techs[1].Endurance
	perTech := len(fc.Sigmas)
	for si := range strategies {
		base := si * len(techs) * perTech
		for k := 0; k < perTech; k++ {
			a, b := points[base+k], points[base+perTech+k]
			if rel := math.Abs(a.MeanIterations/b.MeanIterations - ratio); rel > 1e-9*ratio {
				t.Errorf("mean did not rescale: %g vs %g", a.MeanIterations, b.MeanIterations)
			}
			for q := range a.Quantiles {
				if rel := math.Abs(a.Quantiles[q]/b.Quantiles[q] - ratio); rel > 1e-9*ratio {
					t.Errorf("B-life %d did not rescale: %g vs %g", q, a.Quantiles[q], b.Quantiles[q])
				}
			}
		}
	}
}

// The cache-aware entry point must be bit-identical to the cold path and
// report hits from the second call on.
func TestPlanCacheFleetBitIdentical(t *testing.T) {
	opt := fleetOptions()
	bench := fleetBench(t)
	rc := pim.RunConfig{Iterations: 200, RecompileEvery: 50, Seed: 3, Workers: 1}
	strategies := []pim.Strategy{pim.StaticStrategy}
	techs := []pim.Technology{pim.PCM()}
	fc := pim.FleetConfig{Devices: 10000, Seed: 5}

	cold, err := pim.Fleet(bench, opt, rc, strategies, techs, fc)
	if err != nil {
		t.Fatal(err)
	}
	cache := pim.NewPlanCache(4)
	first, hit, err := cache.Fleet(bench, opt, rc, strategies, techs, fc)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first call reported a cache hit")
	}
	second, hit, err := cache.Fleet(bench, opt, rc, strategies, techs, fc)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second call missed the cache")
	}
	if !reflect.DeepEqual(cold, first) || !reflect.DeepEqual(first, second) {
		t.Error("cached fleet points differ from cold run")
	}
}

// Defaults: nil strategies → all 18, nil technologies → the paper's
// four, empty sigmas → {DefaultFleetSigma}.
func TestFleetDefaults(t *testing.T) {
	opt := fleetOptions()
	bench := fleetBench(t)
	rc := pim.RunConfig{Iterations: 60, RecompileEvery: 30, Seed: 1}
	points, err := pim.Fleet(bench, opt, rc, nil, nil, pim.FleetConfig{Devices: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if want := 18 * 4; len(points) != want {
		t.Fatalf("got %d points, want %d", len(points), want)
	}
	for _, p := range points {
		if p.Sigma != pim.DefaultFleetSigma {
			t.Fatalf("default sigma %v, want %v", p.Sigma, pim.DefaultFleetSigma)
		}
	}
}

func TestFleetValidation(t *testing.T) {
	opt := fleetOptions()
	bench := fleetBench(t)
	rc := pim.RunConfig{Iterations: 10, Seed: 1}
	if _, err := pim.Fleet(bench, opt, rc, nil, nil, pim.FleetConfig{}); err == nil {
		t.Error("zero devices accepted")
	}
	bad := pim.FleetConfig{Devices: 10, Sigmas: []float64{-0.1}}
	if _, err := pim.Fleet(bench, opt, rc, nil, nil, bad); err == nil {
		t.Error("negative sigma accepted")
	}
	deadTech := []pim.Technology{{Name: "broken"}}
	if _, err := pim.Fleet(bench, opt, rc, nil, deadTech, pim.FleetConfig{Devices: 10}); err == nil {
		t.Error("invalid technology accepted")
	}
}

// The progress series counts devices cumulatively across the whole
// study, ending at points × devices — also when strategies share a
// distribution: St×Ra takes St×St's points and still adds one row per σ.
func TestFleetProgressSeries(t *testing.T) {
	opt := fleetOptions()
	bench := fleetBench(t)
	rc := pim.RunConfig{Iterations: 60, RecompileEvery: 30, Seed: 1, Workers: 1}
	for _, tc := range []struct {
		name       string
		strategies []pim.Strategy
		// rows is the least number of progress rows the study adds.
		rows int
	}{
		// σ=0 reports one row; σ=0.3 one per 8192-device batch.
		{"one strategy", []pim.Strategy{pim.StaticStrategy}, 4},
		{"aliased pair", []pim.Strategy{
			pim.StaticStrategy,
			{Within: pim.Static, Between: pim.Random},
			{Within: pim.Random, Between: pim.Random},
		}, 4 + 2 + 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			series := obs.NewSeries("test.fleet.progress", "devices")
			defer obs.RemoveSeries(series.Name())
			fc := pim.FleetConfig{Devices: 20000, Sigmas: []float64{0, 0.3}, Seed: 2, Series: series}
			points, err := pim.Fleet(bench, opt, rc, tc.strategies, []pim.Technology{pim.MRAM()}, fc)
			if err != nil {
				t.Fatal(err)
			}
			total := float64(len(points) * fc.Devices)
			last := series.Last()
			if last == nil || last[0] != total {
				t.Fatalf("final progress row %v, want %v", last, total)
			}
			if series.Len() < tc.rows {
				t.Errorf("only %d progress rows, want at least %d", series.Len(), tc.rows)
			}
			prev := 0.0
			for _, row := range series.Samples() {
				if row[0] < prev {
					t.Fatalf("progress fell from %v to %v", prev, row[0])
				}
				prev = row[0]
			}
		})
	}
}

// One draw pass per (strategy, σ) serves every technology: a study of
// S strategies × T technologies × Σ nonzero σ × D devices inverts S·Σ·D
// hazard draws and counts S·T·Σ·D simulated devices.
func TestFleetSharesDrawsAcrossTechnologies(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	opt := fleetOptions()
	bench := fleetBench(t)
	rc := pim.RunConfig{Iterations: 60, RecompileEvery: 30, Seed: 1, Workers: 2}
	strategies := []pim.Strategy{pim.StaticStrategy, {Within: pim.Random, Between: pim.Random}}
	fc := pim.FleetConfig{Devices: 10_000, Sigmas: []float64{0.3, 0.6}, Seed: 4}
	points, err := pim.Fleet(bench, opt, rc, strategies, nil, fc)
	if err != nil {
		t.Fatal(err)
	}
	s, tech, sig, d := int64(len(strategies)), int64(len(pim.Technologies())), int64(len(fc.Sigmas)), int64(fc.Devices)
	if len(points) != int(s*tech*sig) {
		t.Fatalf("got %d points, want %d", len(points), s*tech*sig)
	}
	if got := obs.GetCounter("fleet.draws").Value(); got != s*sig*d {
		t.Errorf("fleet.draws = %d, want S·Σ·D = %d", got, s*sig*d)
	}
	if got := obs.GetCounter("fleet.devices").Value(); got != s*tech*sig*d {
		t.Errorf("fleet.devices = %d, want S·T·Σ·D = %d", got, s*tech*sig*d)
	}
}
