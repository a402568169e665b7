package pim_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/obs"
	"pimendure/pim"
)

// bankFixture is the small multiplication the bit-identity tests
// stripe: 4-bit operands on an 8-lane, 96-row array.
func bankFixture(t *testing.T) (*pim.Benchmark, pim.Options) {
	t.Helper()
	opt := pim.Options{Lanes: 8, Rows: 96, PresetOutputs: true, NANDBasis: true}
	b, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b, opt
}

// BankStripe must split exactly rc.Iterations across the organization,
// fill the endurance from the technology, and project a finite system
// lifetime.
func TestBankStripeSmoke(t *testing.T) {
	opt := testOptions()
	b, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pim.BankStripe(b, opt, testRun(), pim.StaticStrategy, pim.MRAM(), pim.BankConfig{
		Org: pim.FlatOrganization(4), Policy: pim.RoundRobinBanks,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, br := range res.Banks {
		total += br.Iterations
		if br.Iterations > 0 && br.Endurance != pim.MRAM().Endurance {
			t.Errorf("bank %d endurance %g, want the technology's %g", br.Bank, br.Endurance, pim.MRAM().Endurance)
		}
	}
	if total != testRun().Iterations {
		t.Errorf("banks absorbed %d iterations, want %d", total, testRun().Iterations)
	}
	if res.BanksTouched != 4 {
		t.Errorf("touched %d banks, want 4", res.BanksTouched)
	}
	single, err := pim.BankStripe(b, opt, testRun(), pim.StaticStrategy, pim.MRAM(), pim.BankConfig{
		Org: pim.SingleBank(), Policy: pim.RoundRobinBanks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.SystemIterationsToFailure > single.SystemIterationsToFailure) {
		t.Errorf("4-bank stripe projects %g iterations, single bank %g — striping should extend lifetime",
			res.SystemIterationsToFailure, single.SystemIterationsToFailure)
	}
}

// SampleEvery must attach a per-bank wear trajectory to every touched
// bank, named under the bank's own prefix.
func TestBankStripeWearSeries(t *testing.T) {
	opt := testOptions()
	b, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := testRun()
	rc.SampleEvery = 2
	rc.SeriesPrefix = "t1."
	res, err := pim.BankStripe(b, opt, rc, pim.StaticStrategy, pim.MRAM(), pim.BankConfig{
		Org: pim.FlatOrganization(2), Policy: pim.RoundRobinBanks,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range res.Banks {
		if br.Iterations == 0 {
			continue
		}
		wear := br.Result.Wear
		if wear == nil || wear.Len() == 0 {
			t.Errorf("bank %d has no wear trajectory", br.Bank)
			continue
		}
		// A repeated run of this test finds the names taken, and the
		// registry appends "#<n>" to them.
		want := fmt.Sprintf("t1.system.round-robin.bank%03d.wear.%s.%s", br.Bank, b.Name, pim.StaticStrategy.Name())
		if !strings.HasPrefix(wear.Name(), want) {
			t.Errorf("bank %d series %q, want %q", br.Bank, wear.Name(), want)
		}
	}
}

// The load-bearing invariant: every bank's distribution must be
// bit-identical to a standalone serial reference run of its assigned
// iteration count, for software and +Hw strategies and for any worker
// count. (The short final block lands on one bank as its final epochs,
// so each bank's epoch-length sequence is exactly a standalone run's.)
func TestBankBitIdentityVsReference(t *testing.T) {
	b, opt := bankFixture(t)
	strategies := []pim.Strategy{
		{Within: pim.Random, Between: pim.Static},
		{Within: pim.Random, Between: pim.Static, Hw: true},
	}
	for _, strat := range strategies {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			rc := pim.RunConfig{Iterations: 60, RecompileEvery: 7, Seed: 11, Workers: workers}
			res, err := pim.BankStripe(b, opt, rc, strat, pim.MRAM(), pim.BankConfig{
				Org: pim.FlatOrganization(8), Policy: pim.RoundRobinBanks,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", strat.Name(), workers, err)
			}
			for _, br := range res.Banks {
				if br.Iterations == 0 {
					if br.Result != nil {
						t.Fatalf("%s: untouched bank %d has a distribution", strat.Name(), br.Bank)
					}
					continue
				}
				ref, err := core.SimulateReference(b.Trace, core.SimConfig{
					Rows: 96, PresetOutputs: true,
					Iterations: br.Iterations, RecompileEvery: 7,
					Seed: rc.Seed + int64(br.Bank),
				}, strat)
				if err != nil {
					t.Fatalf("%s bank %d reference: %v", strat.Name(), br.Bank, err)
				}
				if dist := br.Result.Dist; !dist.Equal(ref) {
					t.Errorf("%s workers=%d: bank %d diverges from standalone reference (bank max %d, ref max %d)",
						strat.Name(), workers, br.Bank, dist.Max(), ref.Max())
				}
			}
		}
	}
}

// Wear-aware striping must preserve the same per-bank bit-identity: the
// routing steppers are advisory, and every bank is then run from
// scratch with its own seed.
func TestWearAwareBitIdentityVsReference(t *testing.T) {
	b, opt := bankFixture(t)
	strat := pim.Strategy{Within: pim.Random, Between: pim.Static, Hw: true}
	rc := pim.RunConfig{Iterations: 60, RecompileEvery: 7, Seed: 11, Workers: runtime.GOMAXPROCS(0)}
	res, err := pim.BankStripe(b, opt, rc, strat, pim.MRAM(), pim.BankConfig{
		Org: pim.FlatOrganization(4), Policy: pim.WearAwareBanks,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range res.Banks {
		if br.Iterations == 0 {
			continue
		}
		ref, err := core.SimulateReference(b.Trace, core.SimConfig{
			Rows: 96, PresetOutputs: true,
			Iterations: br.Iterations, RecompileEvery: 7,
			Seed: rc.Seed + int64(br.Bank),
		}, strat)
		if err != nil {
			t.Fatalf("bank %d reference: %v", br.Bank, err)
		}
		if !br.Result.Dist.Equal(ref) {
			t.Errorf("bank %d diverges from standalone reference", br.Bank)
		}
	}
}

// A bank is a run: every touched bank's Result must equal a standalone
// Run at the bank's iterations, seed Seed+b and drawn endurance, and the
// bank's summary fields must come from that Result — under round-robin
// and wear-aware routing, software and +Hw, one and three workers, and
// identical or lognormally varied banks. Wear-aware routing skips the
// pre-worn bank 0, so the untouched branch is covered too.
func TestBankResultsEqualStandaloneRuns(t *testing.T) {
	b, opt := bankFixture(t)
	const banks = 4
	for _, policy := range []pim.BankPolicy{pim.RoundRobinBanks, pim.WearAwareBanks} {
		var prior []uint64
		if policy == pim.WearAwareBanks {
			prior = []uint64{1 << 40, 0, 0, 0}
		}
		for _, hw := range []bool{false, true} {
			strat := pim.Strategy{Within: pim.Random, Between: pim.Static, Hw: hw}
			for _, workers := range []int{1, 3} {
				for _, sigma := range []float64{0, 0.2} {
					name := fmt.Sprintf("%s/%s/workers=%d/sigma=%g", policy, strat.Name(), workers, sigma)
					rc := pim.RunConfig{Iterations: 60, RecompileEvery: 7, Seed: 11, Workers: workers}
					res, err := pim.BankStripe(b, opt, rc, strat, pim.MRAM(), pim.BankConfig{
						Org: pim.FlatOrganization(banks), Policy: policy, PriorMax: prior, Sigma: sigma,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if policy == pim.WearAwareBanks && res.BanksTouched != banks-1 {
						t.Errorf("%s: touched %d banks, want %d", name, res.BanksTouched, banks-1)
					}
					endur := pim.BankEndurances(banks, pim.MRAM().Endurance, sigma, rc.Seed)
					for _, br := range res.Banks {
						if br.Endurance != endur[br.Bank] {
							t.Errorf("%s: bank %d endurance %g, want its draw %g", name, br.Bank, br.Endurance, endur[br.Bank])
						}
						if br.Iterations == 0 {
							if br.Result != nil || br.MaxWrites != 0 {
								t.Errorf("%s: untouched bank %d has a result", name, br.Bank)
							}
							continue
						}
						tech := pim.MRAM()
						tech.Endurance = endur[br.Bank]
						want, err := pim.Run(b, opt, pim.RunConfig{
							Iterations: br.Iterations, RecompileEvery: rc.RecompileEvery,
							Seed: rc.Seed + int64(br.Bank),
						}, strat, tech)
						if err != nil {
							t.Fatalf("%s bank %d: %v", name, br.Bank, err)
						}
						got := br.Result
						if got.Dist.Checksum() != want.Dist.Checksum() {
							t.Errorf("%s: bank %d checksum %s, standalone run %s", name, br.Bank, got.Dist.Checksum(), want.Dist.Checksum())
						}
						if got.Summary != want.Summary || got.MaxWritesPerIteration != want.MaxWritesPerIteration ||
							got.Lifetime != want.Lifetime || got.Imbalance != want.Imbalance {
							t.Errorf("%s: bank %d result %+v/%v/%+v/%v, standalone run %+v/%v/%+v/%v", name, br.Bank,
								got.Summary, got.MaxWritesPerIteration, got.Lifetime, got.Imbalance,
								want.Summary, want.MaxWritesPerIteration, want.Lifetime, want.Imbalance)
						}
						if br.MaxWrites != got.Summary.Max || br.CoV != got.Summary.CoV {
							t.Errorf("%s: bank %d max/CoV %d/%v, its result's %d/%v", name, br.Bank,
								br.MaxWrites, br.CoV, got.Summary.Max, got.Summary.CoV)
						}
					}
				}
			}
		}
	}
}

// Every bank run, and under wear-aware routing every routing stepper,
// hands its scratch and counts buffers back to the plan's arena, so a
// warm repeat of a stripe whose results were released allocates nothing.
// (Not parallel: the obs registry is process-wide.)
func TestBankStripeReturnsBuffers(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	b, opt := bankFixture(t)
	rc := pim.RunConfig{Iterations: 80, RecompileEvery: 5, Seed: 1, Workers: 1}
	for _, policy := range []pim.BankPolicy{pim.RoundRobinBanks, pim.WearAwareBanks} {
		cache := pim.NewPlanCache(1)
		stripe := func() {
			res, _, err := cache.BankStripe(b, opt, rc, pim.StaticStrategy, pim.MRAM(), pim.BankConfig{
				Org: pim.FlatOrganization(4), Policy: policy,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.BanksTouched != 4 {
				t.Fatalf("%s: touched %d banks, want 4", policy, res.BanksTouched)
			}
			for _, br := range res.Banks {
				br.Result.Dist.Release()
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

// The PlanCache-backed variant must share one plan across policy
// comparisons.
func TestPlanCacheBankStripe(t *testing.T) {
	opt := testOptions()
	b, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	cache := pim.NewPlanCache(2)
	var results []*pim.StripeResult
	for i, p := range pim.BankPolicies() {
		res, hit, err := cache.BankStripe(b, opt, testRun(), pim.StaticStrategy, pim.MRAM(), pim.BankConfig{
			Org: pim.DDR4Organization(), Policy: p,
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if hit != (i > 0) {
			t.Errorf("%s: cache hit = %v on call %d", p, hit, i)
		}
		results = append(results, res)
	}
	// Identical fresh banks: wear-aware must agree with round-robin.
	if results[0].SystemIterationsToFailure != results[1].SystemIterationsToFailure {
		t.Errorf("wear-aware on fresh identical banks projects %g, round-robin %g",
			results[1].SystemIterationsToFailure, results[0].SystemIterationsToFailure)
	}
}
