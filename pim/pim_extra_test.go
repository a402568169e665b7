package pim_test

import (
	"bytes"
	"testing"

	"pimendure/pim"
)

func TestSaveLoadDistRoundTrip(t *testing.T) {
	opt := testOptions()
	b, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pim.Run(b, opt, testRun(), pim.StaticStrategy, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pim.SaveDist(&buf, res.Dist); err != nil {
		t.Fatal(err)
	}
	back, err := pim.LoadDist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(res.Dist) {
		t.Error("distribution round trip mismatch")
	}
	// The reloaded distribution renders identically.
	g1, err := pim.Heatmap(res.Dist, 32)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := pim.Heatmap(back, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.Data {
		if g1.Data[i] != g2.Data[i] {
			t.Fatal("reloaded heatmap differs")
		}
	}
}

func TestSaveTrace(t *testing.T) {
	opt := testOptions()
	b, err := pim.NewVectorAdd(opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pim.SaveTrace(&buf, b); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty trace serialization")
	}
}

func TestEnergyPerIteration(t *testing.T) {
	opt := testOptions()
	b, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, m := range pim.EnergyModels() {
		br, err := pim.EnergyPerIteration(b, opt, m)
		if err != nil {
			t.Fatal(err)
		}
		if br.Total() <= 0 || br.WriteJ <= br.ReadJ {
			t.Errorf("%s: implausible breakdown %+v", m.Name, br)
		}
		if br.Total() <= prev {
			t.Errorf("%s should cost more than the previous model", m.Name)
		}
		prev = br.Total()
	}
	if _, err := pim.EnergyPerIteration(b, opt, pim.EnergyModel{Name: "bad"}); err == nil {
		t.Error("invalid energy model accepted")
	}
}

func TestChipLifetime(t *testing.T) {
	opt := testOptions()
	b, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pim.Run(b, opt, testRun(), pim.StaticStrategy, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	noSpare := pim.ChipConfig{Arrays: 64, DutyCycle: 1, Sigma: 0.4}
	spared := pim.ChipConfig{Arrays: 64, SpareFraction: 0.25, DutyCycle: 1, Sigma: 0.4}
	a, err := pim.ChipLifetime(res.Lifetime, noSpare)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := pim.ChipLifetime(res.Lifetime, spared)
	if err != nil {
		t.Fatal(err)
	}
	if bb.MeanSeconds <= a.MeanSeconds {
		t.Error("spares should extend chip life")
	}
	if _, err := pim.ChipLifetime(res.Lifetime, pim.ChipConfig{}); err == nil {
		t.Error("invalid chip config accepted")
	}
}

func TestOptimizeBenchmark(t *testing.T) {
	opt := testOptions()
	b, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	opted, st := pim.Optimize(b)
	// Workload compiler output is already minimal: identity expected.
	if st.RemovedGates != 0 {
		t.Errorf("removed %d gates from an already-minimal kernel", st.RemovedGates)
	}
	// The optimized benchmark still verifies exactly.
	data := func(slot, lane int) bool { return (slot+lane)%3 == 1 }
	if err := pim.Verify(opted, opt, pim.StaticStrategy, data); err != nil {
		t.Error(err)
	}
	if opted.Name != b.Name {
		t.Error("name lost")
	}
}

func TestBNNLayerThroughFacade(t *testing.T) {
	opt := testOptions()
	b, err := pim.NewBNNLayer(opt, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := pim.Verify(b, opt, pim.Strategy{Within: pim.Random, Hw: true},
		func(slot, lane int) bool { return (slot+lane)%2 == 0 }); err != nil {
		t.Error(err)
	}
}

// Sweep's bounded pool must return exactly what per-strategy Run calls
// return, bit for bit, for any worker budget — including budgets smaller
// and larger than the strategy count.
func TestSweepBoundedWorkersMatchesRun(t *testing.T) {
	opt := testOptions()
	b, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []pim.Strategy{
		pim.StaticStrategy,
		{Within: pim.Random, Between: pim.ByteShift},
		{Within: pim.ByteShift, Between: pim.Random, Hw: true},
		{Within: pim.Random, Between: pim.Random, Hw: true},
	}
	var baseline []*pim.Result
	for _, workers := range []int{1, 2, 32} {
		rc := testRun()
		rc.Workers = workers
		results, err := pim.Sweep(b, opt, rc, strategies, pim.MRAM())
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(strategies) {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		for i, r := range results {
			if r.Strategy != strategies[i] {
				t.Errorf("workers=%d: result %d out of order", workers, i)
			}
			single, err := pim.Run(b, opt, rc, strategies[i], pim.MRAM())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Dist.Equal(single.Dist) {
				t.Errorf("workers=%d: sweep result for %s differs from direct Run",
					workers, strategies[i].Name())
			}
		}
		if baseline == nil {
			baseline = results
		} else {
			for i := range results {
				if !results[i].Dist.Equal(baseline[i].Dist) {
					t.Errorf("worker budget changed the %s distribution", strategies[i].Name())
				}
			}
		}
	}
}
