package system_test

import (
	"runtime"
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/device"
	"pimendure/internal/mapping"
	"pimendure/internal/obs"
	"pimendure/internal/synth"
	"pimendure/internal/system"
	"pimendure/internal/workloads"
)

// bankFixture builds the shared small workload plan.
func bankFixture(t *testing.T) *core.WearPlan {
	t.Helper()
	cfg := workloads.Config{Lanes: 8, Rows: 96, Basis: synth.NAND}
	mult, err := workloads.ParallelMult(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewWearPlan(mult.Trace, 96, true)
}

func swStrategy() core.StrategyConfig {
	return core.StrategyConfig{Within: mapping.Random, Between: mapping.Static}
}

// Round-robin must stripe blocks in exact flat-id order: 23 iterations in
// blocks of 7 over 3 banks is blocks {7,7,7,2} routed 0,1,2,0.
func TestRoundRobinExactStripeCounts(t *testing.T) {
	plan := bankFixture(t)
	sim := core.SimConfig{
		Rows: 96, PresetOutputs: true,
		Iterations: 23, RecompileEvery: 7, Seed: 42,
	}
	res, err := system.Stripe(plan, sim, swStrategy(), system.BankConfig{
		Org: device.FlatOrganization(3), Policy: system.RoundRobin, Endurance: 1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantIters := []int{9, 7, 7} // bank 0: blocks 0 (7) and 3 (the short tail, 2)
	wantBlocks := []int{2, 1, 1}
	for b, br := range res.Banks {
		if br.Iterations != wantIters[b] || br.Blocks != wantBlocks[b] {
			t.Errorf("bank %d got %d iterations / %d blocks, want %d / %d",
				b, br.Iterations, br.Blocks, wantIters[b], wantBlocks[b])
		}
	}
	if res.BanksTouched != 3 || res.Spills != 0 {
		t.Errorf("touched %d banks with %d spills, want 3 / 0", res.BanksTouched, res.Spills)
	}
	total := 0
	for _, br := range res.Banks {
		total += br.Iterations
	}
	if total != sim.Iterations {
		t.Errorf("assigned %d iterations, want %d", total, sim.Iterations)
	}
}

// Wear-aware routing must keep work off a bank that carries heavy
// pre-existing wear while the fresh banks still have headroom.
func TestWearAwareRoutesAwayFromHotBank(t *testing.T) {
	plan := bankFixture(t)
	sim := core.SimConfig{
		Rows: 96, PresetOutputs: true,
		Iterations: 40, RecompileEvery: 10, Seed: 7,
	}
	res, err := system.Stripe(plan, sim, swStrategy(), system.BankConfig{
		Org: device.FlatOrganization(4), Policy: system.WearAware,
		PriorMax:  []uint64{1 << 40, 0, 0, 0}, // bank 0 is nearly worn out
		Endurance: 1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Banks[0].Iterations != 0 {
		t.Errorf("hot bank 0 still received %d iterations", res.Banks[0].Iterations)
	}
	for b := 1; b < 4; b++ {
		if res.Banks[b].Iterations == 0 {
			t.Errorf("fresh bank %d received no work", b)
		}
	}
	if res.BanksTouched != 3 {
		t.Errorf("touched %d banks, want 3", res.BanksTouched)
	}
}

// With identical fresh banks, wear-aware routing must fall back to an
// even round-robin-like spread (ties break to the lowest id), not pile
// onto one bank.
func TestWearAwareSpreadsFreshBanks(t *testing.T) {
	plan := bankFixture(t)
	sim := core.SimConfig{
		Rows: 96, PresetOutputs: true,
		Iterations: 40, RecompileEvery: 10, Seed: 7,
	}
	res, err := system.Stripe(plan, sim, swStrategy(), system.BankConfig{
		Org: device.FlatOrganization(4), Policy: system.WearAware, Endurance: 1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for b, br := range res.Banks {
		if br.Iterations != 10 {
			t.Errorf("bank %d got %d iterations, want 10", b, br.Iterations)
		}
	}
}

// Locality-aware spilling, hand-traced: a 1×2×2 organization, pressure 3
// blocks' worth per active group, 10 single-epoch blocks. Group 1
// activates (one spill) when the first 3 blocks saturate group 0; the
// cursor then round-robins the widened prefix.
func TestLocalitySpillBoundary(t *testing.T) {
	plan := bankFixture(t)
	const r = 10 // recompile period = block size
	sim := core.SimConfig{
		Rows: 96, PresetOutputs: true,
		Iterations: 10 * r, RecompileEvery: r, Seed: 3,
	}
	res, err := system.Stripe(plan, sim, swStrategy(), system.BankConfig{
		Org:           system.Organization{Name: "tiny", Channels: 1, BankGroups: 2, Banks: 2},
		Policy:        system.LocalityAware,
		PressureIters: 3 * r,
		Endurance:     1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks := []int{4, 3, 1, 2} // blocks {0,2,4,8}, {1,5,9}, {6}, {3,7}
	for b, br := range res.Banks {
		if br.Blocks != wantBlocks[b] || br.Iterations != wantBlocks[b]*r {
			t.Errorf("bank %d got %d blocks / %d iterations, want %d / %d",
				b, br.Blocks, br.Iterations, wantBlocks[b], wantBlocks[b]*r)
		}
	}
	if res.Spills != 1 {
		t.Errorf("spills = %d, want exactly 1", res.Spills)
	}
}

// The load-bearing invariant: every bank's distribution must be
// bit-identical to a standalone serial reference run of its assigned
// iteration count, for software and +Hw strategies and for any worker
// count. (The short final block lands on one bank as its final epochs,
// so each bank's epoch-length sequence is exactly a standalone run's.)
func TestBankBitIdentityVsReference(t *testing.T) {
	plan := bankFixture(t)
	strategies := []core.StrategyConfig{
		{Within: mapping.Random, Between: mapping.Static},
		{Within: mapping.Random, Between: mapping.Static, Hw: true},
	}
	for _, strat := range strategies {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			sim := core.SimConfig{
				Rows: 96, PresetOutputs: true,
				Iterations: 60, RecompileEvery: 7, Seed: 11,
				Workers: workers,
			}
			res, err := system.Stripe(plan, sim, strat, system.BankConfig{
				Org: device.FlatOrganization(8), Policy: system.RoundRobin, Endurance: 1e12,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", strat.Name(), workers, err)
			}
			for _, br := range res.Banks {
				if br.Iterations == 0 {
					if br.Dist != nil {
						t.Fatalf("%s: untouched bank %d has a distribution", strat.Name(), br.Bank)
					}
					continue
				}
				ref, err := core.SimulateReference(plan.Trace(), core.SimConfig{
					Rows: 96, PresetOutputs: true,
					Iterations: br.Iterations, RecompileEvery: 7,
					Seed: sim.Seed + int64(br.Bank),
				}, strat)
				if err != nil {
					t.Fatalf("%s bank %d reference: %v", strat.Name(), br.Bank, err)
				}
				if !br.Dist.Equal(ref) {
					t.Errorf("%s workers=%d: bank %d diverges from standalone reference (bank max %d, ref max %d)",
						strat.Name(), workers, br.Bank, br.Dist.Max(), ref.Max())
				}
			}
		}
	}
}

// Wear-aware striping must preserve the same per-bank bit-identity: the
// routing steppers are advisory, and phase 2 re-simulates each bank from
// scratch with its own seed.
func TestWearAwareBitIdentityVsReference(t *testing.T) {
	plan := bankFixture(t)
	strat := core.StrategyConfig{Within: mapping.Random, Between: mapping.Static, Hw: true}
	sim := core.SimConfig{
		Rows: 96, PresetOutputs: true,
		Iterations: 60, RecompileEvery: 7, Seed: 11,
		Workers: runtime.GOMAXPROCS(0),
	}
	res, err := system.Stripe(plan, sim, strat, system.BankConfig{
		Org: device.FlatOrganization(4), Policy: system.WearAware, Endurance: 1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range res.Banks {
		if br.Iterations == 0 {
			continue
		}
		ref, err := core.SimulateReference(plan.Trace(), core.SimConfig{
			Rows: 96, PresetOutputs: true,
			Iterations: br.Iterations, RecompileEvery: 7,
			Seed: sim.Seed + int64(br.Bank),
		}, strat)
		if err != nil {
			t.Fatalf("bank %d reference: %v", br.Bank, err)
		}
		if !br.Dist.Equal(ref) {
			t.Errorf("bank %d diverges from standalone reference", br.Bank)
		}
	}
}

// BankEndurances must be reproducible from its seed and exact at σ=0.
func TestBankEndurancesSeeded(t *testing.T) {
	flat := system.BankEndurances(8, 1e12, 0, 99)
	for i, e := range flat {
		if e != 1e12 {
			t.Errorf("σ=0 bank %d endurance %g, want exactly 1e12", i, e)
		}
	}
	a := system.BankEndurances(8, 1e12, 0.25, 99)
	b := system.BankEndurances(8, 1e12, 0.25, 99)
	c := system.BankEndurances(8, 1e12, 0.25, 100)
	varied, differs := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at bank %d: %g vs %g", i, a[i], b[i])
		}
		if a[i] != 1e12 {
			varied = true
		}
		if a[i] != c[i] {
			differs = true
		}
	}
	if !varied {
		t.Error("σ=0.25 drew no variation")
	}
	if !differs {
		t.Error("different seeds drew identical endurances")
	}
}

func TestPolicyParseRoundTrip(t *testing.T) {
	for _, p := range system.Policies() {
		got, err := system.ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for spelling, want := range map[string]system.Policy{
		"rr": system.RoundRobin, "WEAR": system.WearAware, "Locality-Aware": system.LocalityAware,
	} {
		got, err := system.ParsePolicy(spelling)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", spelling, got, err, want)
		}
	}
	if _, err := system.ParsePolicy("fifo"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

func TestStripeRejectsBadConfig(t *testing.T) {
	plan := bankFixture(t)
	sim := core.SimConfig{Rows: 96, PresetOutputs: true, Iterations: 20, RecompileEvery: 10, Seed: 1}
	cases := []struct {
		name string
		sim  core.SimConfig
		cfg  system.BankConfig
	}{
		{"invalid org", sim, system.BankConfig{Org: system.Organization{}}},
		{"prior length", sim, system.BankConfig{Org: device.FlatOrganization(4), PriorMax: []uint64{1, 2}}},
		{"block not multiple", sim, system.BankConfig{Org: device.FlatOrganization(4), BlockIters: 15}},
		{"unknown policy", sim, system.BankConfig{Org: device.FlatOrganization(4), Policy: system.Policy(99)}},
	}
	for _, c := range cases {
		if _, err := system.Stripe(plan, c.sim, swStrategy(), c.cfg); err == nil {
			t.Errorf("%s: Stripe accepted the configuration", c.name)
		}
	}
}

// Wear-aware routing hands its per-bank steppers' scratch and counts
// buffers back to the plan's arena, so a warm repeat of a stripe whose
// results were released allocates nothing. (Not parallel: the obs
// registry is process-wide.)
func TestWearAwareRoutingReturnsBuffers(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	plan := bankFixture(t)
	sim := core.SimConfig{
		Rows: 96, PresetOutputs: true,
		Iterations: 80, RecompileEvery: 5, Seed: 1, Workers: 1,
	}
	for _, policy := range []system.Policy{system.RoundRobin, system.WearAware} {
		stripe := func() {
			res, err := system.Stripe(plan, sim, swStrategy(), system.BankConfig{
				Org: device.FlatOrganization(4), Policy: policy, Endurance: 1e12,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, br := range res.Banks {
				br.Dist.Release()
			}
		}
		stripe() // cold: fills the arena
		misses := obs.GetCounter("core.arena_misses")
		before := misses.Value()
		stripe()
		if got := misses.Value() - before; got != 0 {
			t.Errorf("%s: warm stripe missed the arena %d times, want 0", policy, got)
		}
	}
}
