package pim_test

import (
	"reflect"
	"testing"

	"pimendure/internal/obs"
	"pimendure/pim"
)

// The strategies of a sweep over a plan without partial-mask writes
// share one simulation per (within, +Hw). Sharing must change nothing
// observable: every result equals a Run of its own strategy.

// sameResult reports whether a sweep result equals a solo Run field for
// field, with the distributions compared cell by cell and by checksum.
func sameResult(t *testing.T, got, want *pim.Result) {
	t.Helper()
	name := want.Strategy.Name()
	if !got.Dist.Equal(want.Dist) || got.Dist.Checksum() != want.Dist.Checksum() ||
		got.Dist.Iterations != want.Dist.Iterations || got.Dist.StepsPerIteration != want.Dist.StepsPerIteration {
		t.Errorf("%s: sweep distribution differs from Run", name)
	}
	g, w := *got, *want
	g.Dist, w.Dist = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: sweep result %+v, Run %+v", name, g, w)
	}
}

// A 9-strategy mult fleet study equals nine one-strategy studies point
// for point, and no two points share a quantile slice. A fleet study never
// samples, so a RunConfig with SampleEvery set groups the same way: 3
// simulations serve the 9 strategies either way. (Not parallel: the obs
// registry is process-wide.)
func TestFleetAliasesMatchOneStrategyFleets(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	opt := fleetOptions()
	bench := fleetBench(t)
	strategies := pim.AllStrategies()[:9]
	techs := []pim.Technology{pim.MRAM(), pim.PCM()}
	for _, seed := range []int64{1, 4} {
		for _, workers := range []int{1, 3} {
			for _, sample := range []int{0, 10} {
				rc := pim.RunConfig{Iterations: 70, RecompileEvery: 20, Seed: seed, Workers: workers, SampleEvery: sample}
				fc := pim.FleetConfig{Devices: 3000, Sigmas: []float64{0, 0.4}, Seed: seed}
				obs.Reset()
				points, err := pim.Fleet(bench, opt, rc, strategies, techs, fc)
				if err != nil {
					t.Fatal(err)
				}
				if got := obs.GetCounter("pim.runs_reused").Value(); got != 6 {
					t.Errorf("seed %d workers %d sample %d: pim.runs_reused = %d, want 6", seed, workers, sample, got)
				}
				per := len(techs) * len(fc.Sigmas)
				if len(points) != len(strategies)*per {
					t.Fatalf("got %d points, want %d", len(points), len(strategies)*per)
				}
				for si, s := range strategies {
					solo, err := pim.Fleet(bench, opt, rc, []pim.Strategy{s}, techs, fc)
					if err != nil {
						t.Fatal(err)
					}
					if got := points[si*per : (si+1)*per]; !reflect.DeepEqual(got, solo) {
						t.Errorf("seed %d workers %d sample %d: %s points %+v, one-strategy study %+v",
							seed, workers, sample, s.Name(), got, solo)
					}
				}
				seen := map[*float64]bool{}
				for _, p := range points {
					if seen[&p.Quantiles[0]] {
						t.Fatalf("%s shares its quantile slice with another point", p.Strategy.Name())
					}
					seen[&p.Quantiles[0]] = true
				}
			}
		}
	}
}

// The first member of a group in request order simulates, whatever its
// between strategy: a request listing Ra×Ra before Ra×St gets Ra×Ra's
// distribution for both, bit-identical to solo runs, in request order.
// (Not parallel: the obs registry is process-wide.)
func TestAliasesKeepRequestOrder(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	opt := fleetOptions()
	bench := fleetBench(t)
	strategies := []pim.Strategy{
		{Within: pim.Random, Between: pim.Random},
		{Within: pim.ByteShift, Between: pim.ByteShift, Hw: true},
		{Within: pim.Random, Between: pim.Static},
		pim.StaticStrategy,
		{Within: pim.Random, Between: pim.ByteShift},
		{Within: pim.ByteShift, Between: pim.Static, Hw: true},
	}
	rc := pim.RunConfig{Iterations: 70, RecompileEvery: 20, Seed: 9, Workers: 2}
	results, err := pim.Sweep(bench, opt, rc, strategies, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.GetCounter("pim.runs_reused").Value(); got != 3 {
		t.Errorf("pim.runs_reused = %d after the sweep, want 3", got)
	}
	buf := func(i int) *uint64 { return &results[i].Dist.Counts[0] }
	if buf(2) != buf(0) || buf(4) != buf(0) || buf(5) != buf(1) {
		t.Error("Ra×St, Ra×Bs and Bs×St+Hw do not share the counts buffer of the first member of their group")
	}
	for i, r := range results {
		if r.Strategy != strategies[i] {
			t.Fatalf("result %d is %s, want %s", i, r.Strategy.Name(), strategies[i].Name())
		}
		solo, err := pim.Run(bench, opt, rc, strategies[i], pim.MRAM())
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, r, solo)
	}

	fc := pim.FleetConfig{Devices: 2000, Sigmas: []float64{0.5}, Seed: 3}
	techs := []pim.Technology{pim.RRAM()}
	points, err := pim.Fleet(bench, opt, rc, strategies, techs, fc)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.GetCounter("pim.runs_reused").Value(); got != 6 {
		t.Errorf("pim.runs_reused = %d after the fleet study, want 6", got)
	}
	for i, s := range strategies {
		solo, err := pim.Fleet(bench, opt, rc, []pim.Strategy{s}, techs, fc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(points[i:i+1], solo) {
			t.Errorf("%s: point %+v, one-strategy study %+v", s.Name(), points[i], solo[0])
		}
	}
}
