// Multi-bank organizations. A real PIM substrate is a hierarchy of
// banks, each its own array running the same kernel, so striping a
// benchmark across one is a run of the kernel per bank. BankStripe asks
// internal/system's scheduler how many iterations each bank gets, runs
// every touched bank through Run's own body with its iterations, seed
// and drawn endurance, and projects the system-level lifetime from the
// per-bank results — the array-of-arrays extension of Run.
package pim

import (
	"fmt"
	"math"

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

// BankResult is one bank's outcome of a striping run.
type BankResult struct {
	// Bank is the flat bank id; Channel, Group and Index its position.
	Bank, Channel, Group, Index int
	// Iterations and Blocks the scheduler assigned to this bank.
	Iterations, Blocks int
	// PriorMax is the pre-existing hottest-cell wear carried in.
	PriorMax uint64
	// Endurance is this bank's drawn cell endurance.
	Endurance float64
	// Result is the bank's run: Run of its assigned iterations with seed
	// rc.Seed+Bank on the technology at this bank's endurance, carrying
	// its distribution and, when rc.SampleEvery > 0, its wear series
	// "<prefix>system.<policy>.bank<id>.wear.<bench>.<strategy>" (nil for
	// untouched banks).
	Result *Result
	// MaxWrites and MeanWrites summarize Result's distribution (this
	// run only, excluding PriorMax); CoV is its coefficient of
	// variation. Untouched banks report zeros.
	MaxWrites  uint64
	MeanWrites float64
	CoV        float64
	// IterationsToFailure is the bank-local Eq. 4 projection: remaining
	// endurance headroom over the observed per-iteration peak rate
	// (+Inf for untouched banks).
	IterationsToFailure float64
}

// StripeResult is the outcome of striping one workload across an
// organization.
type StripeResult struct {
	// Org and Policy echo the configuration.
	Org    Organization
	Policy BankPolicy
	// TotalIterations and BlockIters echo the resolved workload split.
	TotalIterations, BlockIters int
	// Banks holds one entry per bank, flat-id order.
	Banks []BankResult
	// BanksTouched counts banks that received work; Spills counts
	// locality-aware group activations beyond the first.
	BanksTouched, Spills int
	// BankCoV is the across-bank coefficient of variation of effective
	// hottest-cell wear (PriorMax + MaxWrites) — the "what the mean
	// hides" number: 0 means the stripe left every bank equally worn.
	BankCoV float64
	// SystemIterationsToFailure is the sustainable workload total: the
	// iterations the whole organization absorbs, at this stripe's
	// per-bank proportions, until the first bank's hottest cell crosses
	// its endurance.
	SystemIterationsToFailure float64
}

// BankStripe stripes the benchmark's rc.Iterations across a multi-bank
// organization under cfg.Policy and runs every touched bank against one
// shared WearPlan. rc supplies the run parameters exactly as for Run:
// bank b runs with seed rc.Seed+b, series prefix
// "<rc.SeriesPrefix>system.<policy>.bank<id>." and tech's endurance
// replaced by its BankEndurances draw (tech.Endurance itself when
// cfg.Sigma is 0). Every bank's result equals a standalone Run of its
// assigned iteration count for any worker count.
func BankStripe(b *Benchmark, opt Options, rc RunConfig, s Strategy, tech Technology, cfg BankConfig) (*StripeResult, error) {
	res, _, err := uncached.BankStripe(b, opt, rc, s, tech, cfg)
	return res, err
}

// BankStripe is PlanCache-backed BankStripe: the benchmark's WearPlan is
// fetched from (or built into) the cache, so repeated striping runs over
// the same benchmark — policy comparisons, bank-count sweeps — share one
// plan. hit reports whether the plan was already cached.
func (c *PlanCache) BankStripe(b *Benchmark, opt Options, rc RunConfig, s Strategy, tech Technology, cfg BankConfig) (res *StripeResult, hit bool, err error) {
	sp := obs.StartSpan("pim.bankstripe")
	defer sp.End()
	obsBankStripes.Add(1)
	plan, hit := c.Plan(b, opt)
	res, err = bankStripePlanned(plan, b, rc, s, tech, cfg)
	return res, hit, err
}

// bankStripePlanned is BankStripe against a prebuilt (possibly cached)
// WearPlan.
func bankStripePlanned(plan *core.WearPlan, b *Benchmark, rc RunConfig, s Strategy, tech Technology, cfg BankConfig) (*StripeResult, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	rt, err := system.Route(plan, rc.simConfig(plan), s, cfg)
	if err != nil {
		return nil, err
	}
	res := &StripeResult{
		Org: cfg.Org, Policy: cfg.Policy,
		TotalIterations: rc.Iterations, BlockIters: rt.BlockIters,
		Banks:  make([]BankResult, cfg.Org.TotalBanks()),
		Spills: rt.Spills,
	}
	endur := BankEndurances(len(res.Banks), tech.Endurance, cfg.Sigma, rc.Seed)
	var touched []int
	var jobs []runJob
	for i := range res.Banks {
		br := &res.Banks[i]
		ch, g, idx := cfg.Org.Position(i)
		*br = BankResult{
			Bank: i, Channel: ch, Group: g, Index: idx,
			Iterations: rt.Iterations[i], Blocks: rt.Blocks[i],
			Endurance:           endur[i],
			IterationsToFailure: math.Inf(1),
		}
		if cfg.PriorMax != nil {
			br.PriorMax = cfg.PriorMax[i]
		}
		if br.Iterations == 0 {
			continue
		}
		brc := rc
		brc.Iterations = br.Iterations
		brc.RecompileEvery = rt.RecompileEvery
		brc.Seed = rc.Seed + int64(i)
		brc.SeriesPrefix = fmt.Sprintf("%ssystem.%s.bank%03d.", rc.SeriesPrefix, cfg.Policy, i)
		btech := tech
		btech.Endurance = br.Endurance
		touched = append(touched, i)
		jobs = append(jobs, runJob{rc: brc, s: s, tech: btech})
	}
	runs, err := runAll(plan, b, rc.Workers, jobs)
	if err != nil {
		return nil, err
	}
	for k, r := range runs {
		br := &res.Banks[touched[k]]
		br.Result = r
		br.MaxWrites = r.Summary.Max
		br.MeanWrites = float64(r.Summary.Total) / float64(r.Summary.N)
		br.CoV = r.Summary.CoV
	}
	res.BanksTouched = len(touched)
	res.project(rc)
	return res, nil
}

// project derives the lifetime and imbalance summaries from the
// per-bank results: bank-local iterations-to-failure, the across-bank
// CoV of effective wear, and the system-level sustainable iteration
// total (first bank failure at this stripe's proportions). A sampled
// run also records the per-bank table as the series
// "<prefix>system.banks.<policy>".
func (r *StripeResult) project(rc RunConfig) {
	sys := math.Inf(1)
	var sum, sumsq float64
	for i := range r.Banks {
		b := &r.Banks[i]
		x := float64(b.PriorMax + b.MaxWrites)
		sum += x
		sumsq += x * x
		if b.MaxWrites == 0 {
			continue
		}
		headroom := max(b.Endurance-float64(b.PriorMax), 0)
		perIter := float64(b.MaxWrites) / float64(b.Iterations)
		b.IterationsToFailure = headroom / perIter
		// The whole workload advances TotalIterations for every
		// Iterations this bank absorbs; the system dies when its
		// weakest-headroom bank does.
		sys = min(sys, headroom/float64(b.MaxWrites)*float64(r.TotalIterations))
	}
	r.SystemIterationsToFailure = sys
	n := float64(len(r.Banks))
	if mean := sum / n; mean > 0 {
		r.BankCoV = math.Sqrt(max(sumsq/n-mean*mean, 0)) / mean
	}
	if rc.SampleEvery > 0 {
		s := obs.NewSeries(rc.SeriesPrefix+"system.banks."+r.Policy.String(),
			"bank", "channel", "group", "iterations", "blocks",
			"max_writes", "mean_writes", "cov", "iters_to_failure")
		for i := range r.Banks {
			b := &r.Banks[i]
			s.Add(float64(b.Bank), float64(b.Channel), float64(b.Group),
				float64(b.Iterations), float64(b.Blocks),
				float64(b.MaxWrites), b.MeanWrites, b.CoV, b.IterationsToFailure)
		}
	}
}
