// Multi-bank organizations: the public face of internal/system's bank
// scheduler. A real PIM substrate is a hierarchy of banks, each its own
// array; BankStripe stripes a benchmark's iterations across such an
// organization under a scheduling policy and reports per-bank wear and
// the system-level lifetime — the array-of-arrays extension of Run.
package pim

import (
	"pimendure/internal/core"
	"pimendure/internal/device"
	"pimendure/internal/obs"
	"pimendure/internal/system"
)

// Re-exported multi-bank building blocks.
type (
	// Organization is a bank hierarchy (channels × bank groups × banks).
	Organization = system.Organization
	// BankPolicy selects how iteration blocks stripe across banks.
	BankPolicy = system.Policy
	// BankConfig describes a multi-bank striping run.
	BankConfig = system.BankConfig
	// BankResult is one bank's outcome.
	BankResult = system.BankResult
	// StripeResult is the outcome of striping a workload across banks.
	StripeResult = system.StripeResult
)

// Bank scheduling policies.
const (
	// RoundRobinBanks stripes blocks across all banks obliviously.
	RoundRobinBanks = system.RoundRobin
	// WearAwareBanks routes each block to the least-worn bank.
	WearAwareBanks = system.WearAware
	// LocalityAwareBanks fills one bank group, spilling under pressure.
	LocalityAwareBanks = system.LocalityAware
)

// Bank policy and organization helpers.
var (
	// BankPolicies lists the scheduling policies in presentation order.
	BankPolicies = system.Policies
	// ParseBankPolicy converts a flag spelling to a BankPolicy.
	ParseBankPolicy = system.ParsePolicy
	// BankEndurances draws seeded per-bank endurance variation.
	BankEndurances = system.BankEndurances
	// DDR4Organization is the 16-bank DDR4-sized hierarchy.
	DDR4Organization = device.DDR4Organization
	// HBM3Organization is the 256-bank HBM3-sized hierarchy.
	HBM3Organization = device.HBM3Organization
	// SingleBank is the paper's one-array baseline organization.
	SingleBank = device.SingleBank
	// FlatOrganization is n banks with no group hierarchy.
	FlatOrganization = device.FlatOrganization
	// Organizations lists the named organization presets.
	Organizations = device.Organizations
)

// obsBankStripes counts BankStripe calls (no-op until obs is enabled).
var obsBankStripes = obs.GetCounter("pim.bank_stripes")

// BankStripe stripes the benchmark's rc.Iterations across a multi-bank
// organization under cfg.Policy and simulates every touched bank
// independently against one shared WearPlan. rc supplies the simulation
// parameters exactly as for Run (bank b runs with rc.Seed+b); when
// cfg.Endurance, cfg.SampleEvery or cfg.SeriesPrefix are unset they are
// filled from tech.Endurance, rc.SampleEvery and rc.SeriesPrefix. Every
// bank's distribution is bit-identical to a standalone Run of its
// assigned iteration count for any worker count.
func BankStripe(b *Benchmark, opt Options, rc RunConfig, s Strategy, tech Technology, cfg BankConfig) (*StripeResult, error) {
	return bankStripePlanned(core.NewWearPlan(b.Trace, opt.Rows, opt.PresetOutputs), rc, s, tech, cfg)
}

// BankStripe is PlanCache-backed BankStripe: the benchmark's WearPlan is
// fetched from (or built into) the cache, so repeated striping runs over
// the same benchmark — policy comparisons, bank-count sweeps — share one
// plan. hit reports whether the plan was already cached.
func (c *PlanCache) BankStripe(b *Benchmark, opt Options, rc RunConfig, s Strategy, tech Technology, cfg BankConfig) (res *StripeResult, hit bool, err error) {
	plan, hit := c.Plan(b, opt)
	res, err = bankStripePlanned(plan, rc, s, tech, cfg)
	return res, hit, err
}

// bankStripePlanned is BankStripe against a prebuilt (possibly cached)
// WearPlan.
func bankStripePlanned(plan *core.WearPlan, rc RunConfig, s Strategy, tech Technology, cfg BankConfig) (*StripeResult, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	sp := obs.StartSpan("pim.bankstripe")
	defer sp.End()
	obsBankStripes.Add(1)
	if cfg.Endurance <= 0 {
		cfg.Endurance = tech.Endurance
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = rc.SampleEvery
	}
	if cfg.SeriesPrefix == "" {
		cfg.SeriesPrefix = rc.SeriesPrefix
	}
	return system.Stripe(plan, rc.simConfig(plan), s, cfg)
}
