package system_test

import (
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
	rt, err := system.Route(plan, sim, swStrategy(), system.BankConfig{
		Org: device.FlatOrganization(3), Policy: system.RoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantIters := []int{9, 7, 7} // bank 0: blocks 0 (7) and 3 (the short tail, 2)
	wantBlocks := []int{2, 1, 1}
	for b := range rt.Iterations {
		if rt.Iterations[b] != wantIters[b] || rt.Blocks[b] != wantBlocks[b] {
			t.Errorf("bank %d got %d iterations / %d blocks, want %d / %d",
				b, rt.Iterations[b], rt.Blocks[b], wantIters[b], wantBlocks[b])
		}
	}
	if rt.Spills != 0 {
		t.Errorf("round-robin spilled %d times, want 0", rt.Spills)
	}
	if rt.RecompileEvery != 7 || rt.BlockIters != 7 {
		t.Errorf("resolved recompile/block %d/%d, want 7/7", rt.RecompileEvery, rt.BlockIters)
	}
	total := 0
	for _, n := range rt.Iterations {
		total += n
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
	rt, err := system.Route(plan, sim, swStrategy(), system.BankConfig{
		Org: device.FlatOrganization(4), Policy: system.WearAware,
		PriorMax: []uint64{1 << 40, 0, 0, 0}, // bank 0 is nearly worn out
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Iterations[0] != 0 {
		t.Errorf("hot bank 0 still received %d iterations", rt.Iterations[0])
	}
	for b := 1; b < 4; b++ {
		if rt.Iterations[b] == 0 {
			t.Errorf("fresh bank %d received no work", b)
		}
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
	rt, err := system.Route(plan, sim, swStrategy(), system.BankConfig{
		Org: device.FlatOrganization(4), Policy: system.WearAware,
	})
	if err != nil {
		t.Fatal(err)
	}
	for b, n := range rt.Iterations {
		if n != 10 {
			t.Errorf("bank %d got %d iterations, want 10", b, n)
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
	rt, err := system.Route(plan, sim, swStrategy(), system.BankConfig{
		Org:           system.Organization{Name: "tiny", Channels: 1, BankGroups: 2, Banks: 2},
		Policy:        system.LocalityAware,
		PressureIters: 3 * r,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks := []int{4, 3, 1, 2} // blocks {0,2,4,8}, {1,5,9}, {6}, {3,7}
	for b := range rt.Blocks {
		if rt.Blocks[b] != wantBlocks[b] || rt.Iterations[b] != wantBlocks[b]*r {
			t.Errorf("bank %d got %d blocks / %d iterations, want %d / %d",
				b, rt.Blocks[b], rt.Iterations[b], wantBlocks[b], wantBlocks[b]*r)
		}
	}
	if rt.Spills != 1 {
		t.Errorf("spills = %d, want exactly 1", rt.Spills)
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
		// No iterations resolve the recompile period to 0; Route must
		// reject them before dividing by it.
		{"no iterations", core.SimConfig{Rows: 96, PresetOutputs: true, RecompileEvery: 10}, system.BankConfig{Org: device.FlatOrganization(4)}},
	}
	for _, c := range cases {
		if _, err := system.Route(plan, c.sim, swStrategy(), c.cfg); err == nil {
			t.Errorf("%s: Route accepted the configuration", c.name)
		}
	}
}

// Wear-aware routing hands its per-bank steppers' scratch and counts
// buffers back to the plan's arena, so a warm repeat of a routing
// allocates nothing. (Not parallel: the obs registry is process-wide.)
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
	route := func() {
		if _, err := system.Route(plan, sim, swStrategy(), system.BankConfig{
			Org: device.FlatOrganization(4), Policy: system.WearAware,
		}); err != nil {
			t.Fatal(err)
		}
	}
	route() // cold: fills the arena
	misses := obs.GetCounter("core.arena_misses")
	before := misses.Value()
	route()
	if got := misses.Value() - before; got != 0 {
		t.Errorf("warm wear-aware routing missed the arena %d times, want 0", got)
	}
}
