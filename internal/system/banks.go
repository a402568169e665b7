// The multi-bank organization model: N banks, each an independent
// core.WearPlan-backed wear engine, and a scheduler that stripes a
// workload's iteration blocks across them. This answers a question the
// paper's single-array analysis cannot — does striping across 16 banks
// buy ~16× lifetime, or does hot-cell correlation eat the gain? — and
// adds the scheduling axis on top: because every bank runs the same
// kernel, the per-cell hot spots repeat in every bank, so naive striping
// scales lifetime by the bank count while wear-aware routing can
// additionally absorb bank-to-bank asymmetry (pre-existing wear,
// endurance variation).
//
// Scheduling is two-phase:
//
//  1. Routing walks the workload's recompile-aligned blocks in order and
//     assigns each to a bank (per the Policy). Only the wear-aware
//     policy needs live feedback; it steps a serial core.Stepper per
//     bank and routes each block to the bank with the lowest
//     prior + live hottest-cell count.
//  2. Simulation runs each bank's assigned iterations as an independent
//     simulation against the one shared WearPlan, banks sharded over
//     internal/pool with the worker budget split pool.Share-style —
//     the embarrassingly parallel axis of the organization.
//
// The phases compose exactly: a bank that received k full blocks plus
// (possibly) the workload's short final block sees the same epoch-length
// sequence as a standalone run of its assigned iteration count, so every
// per-bank distribution is bit-identical to core.SimulateReference over
// that bank's configuration — asserted in banks_test.go.
package system

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"pimendure/internal/core"
	"pimendure/internal/device"
	"pimendure/internal/obs"
	"pimendure/internal/pool"
	"pimendure/internal/stats"
)

// Organization is the bank hierarchy of a multi-bank PIM device —
// channels × bank groups × banks, every bank an independent array. The
// canonical definition (and the DDR4/HBM3 presets) lives in
// internal/device next to the technology models.
type Organization = device.Organization

// Observability handles (no-ops until obs.Enable).
var (
	// obsStripes counts Stripe runs.
	obsStripes = obs.GetCounter("system.stripes")
	// obsBlocks counts iteration blocks routed across banks.
	obsBlocks = obs.GetCounter("system.blocks")
	// obsSpills counts locality-aware bank-group spills.
	obsSpills = obs.GetCounter("system.spills")
	// obsBankSims counts per-bank simulations executed.
	obsBankSims = obs.GetCounter("system.bank_sims")
	// obsBanks is the high-water bank count of any organization striped.
	obsBanks = obs.GetGauge("system.banks")
)

// Policy selects how the bank scheduler stripes iteration blocks across
// the organization.
type Policy int

const (
	// RoundRobin stripes blocks across all banks in flat-id order —
	// the oblivious baseline.
	RoundRobin Policy = iota
	// WearAware routes each block to the bank whose hottest cell
	// (pre-existing wear + live accumulated writes) is lowest, fed by a
	// per-bank incremental engine (core.Stepper); ties break to the
	// lowest flat id.
	WearAware
	// LocalityAware keeps the working set on one bank group and widens
	// to the next group only under pressure: blocks round-robin over the
	// active groups' banks, and another group activates whenever the
	// assigned iterations reach PressureIters per active group.
	LocalityAware
)

// String returns the scheduler flag spelling ("round-robin",
// "wear-aware", "locality-aware").
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case WearAware:
		return "wear-aware"
	case LocalityAware:
		return "locality-aware"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy converts a flag spelling (case-insensitive, with or
// without the hyphen) back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.ReplaceAll(s, "-", "")) {
	case "roundrobin", "rr":
		return RoundRobin, nil
	case "wearaware", "wear":
		return WearAware, nil
	case "localityaware", "locality":
		return LocalityAware, nil
	}
	return 0, fmt.Errorf("system: unknown policy %q (want round-robin, wear-aware or locality-aware)", s)
}

// Policies lists the scheduling policies in presentation order.
func Policies() []Policy { return []Policy{RoundRobin, WearAware, LocalityAware} }

// BankConfig describes a multi-bank striping run. The simulation
// parameters themselves (iterations, recompile period, seed, worker
// budget, array geometry) ride in the core.SimConfig passed to Stripe;
// bank b's per-bank simulation uses Seed+b so banks draw independent
// random schedules yet stay reproducible from one run seed.
type BankConfig struct {
	// Org is the bank hierarchy.
	Org Organization
	// Policy selects the striping policy.
	Policy Policy
	// BlockIters is the scheduling granularity in iterations. It must be
	// a positive multiple of the recompile period (≤ 0 selects exactly
	// one recompile epoch per block), so a bank's assigned blocks always
	// decompose into full recompile epochs plus at most the workload's
	// short final epoch.
	BlockIters int
	// PressureIters is the locality-aware per-active-group capacity: a
	// new bank group activates when the assigned iterations reach
	// PressureIters × active groups. ≤ 0 selects the fair share,
	// ⌈Iterations / TotalGroups⌉.
	PressureIters int
	// PriorMax is optional pre-existing per-bank wear: flat-bank-indexed
	// hottest-cell write counts carried into routing decisions and
	// lifetime headroom (nil = fresh banks).
	PriorMax []uint64
	// Endurance is the nominal cell endurance (writes to failure) behind
	// per-bank lifetime projections and wear-sampler series; ≤ 0 records
	// NaN projections.
	Endurance float64
	// Sigma is the lognormal shape of bank-to-bank endurance variation;
	// bank endurances are drawn by BankEndurances from the run seed, so
	// variation experiments reproduce (0 = identical banks).
	Sigma float64
	// SampleEvery, when > 0, attaches a core.WearSampler to every
	// simulated bank (cadence in recompile epochs) and records the
	// per-bank summary series — bank-level wear flows into /metrics,
	// /series and /wear.png?name=.
	SampleEvery int
	// SeriesPrefix scopes the telemetry names this run registers
	// ("<prefix>system.<policy>.bank<id>" and
	// "<prefix>system.banks.<policy>").
	SeriesPrefix string
}

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
	// MaxWrites and MeanWrites summarize the accumulated distribution
	// (this run only, excluding PriorMax); CoV is its coefficient of
	// variation. Zero-iteration banks report zeros.
	MaxWrites  uint64
	MeanWrites float64
	CoV        float64
	// IterationsToFailure is the bank-local Eq. 4 projection: remaining
	// endurance headroom over the observed per-iteration peak rate
	// (+Inf for untouched banks).
	IterationsToFailure float64
	// Dist is the accumulated write distribution (nil for untouched
	// banks).
	Dist *core.WriteDist
	// Wear is the bank's sampled trajectory when SampleEvery > 0.
	Wear *obs.Series
}

// StripeResult is the outcome of striping one workload across an
// organization.
type StripeResult struct {
	// Org and Policy echo the configuration.
	Org    Organization
	Policy Policy
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

// BankEndurances draws per-bank cell endurances: lognormal around the
// nominal value with shape sigma (the shared stats.Lognormal model, as
// in ChipLifetime and the fleet engine), from an explicit seed so bank-
// variation experiments are reproducible run to run (the seed lands in
// the CLI manifest). sigma ≤ 0 returns the nominal endurance exactly.
func BankEndurances(banks int, nominal float64, sigma float64, seed int64) []float64 {
	out := make([]float64, banks)
	if sigma <= 0 || nominal <= 0 {
		for i := range out {
			out[i] = nominal
		}
		return out
	}
	stats.LognormalMedian(nominal, sigma).Fill(out, rand.New(rand.NewSource(seed)))
	return out
}

// Stripe runs one workload across a multi-bank organization: routes
// sim.Iterations in recompile-aligned blocks over cfg.Org's banks under
// cfg.Policy, then simulates every touched bank independently against
// the shared plan (banks sharded over the worker pool; per-bank results
// bit-identical to core.SimulateReference for any worker count). sim
// carries the per-bank simulation parameters; bank b simulates with
// seed sim.Seed+b.
func Stripe(plan *core.WearPlan, sim core.SimConfig, strat core.StrategyConfig, cfg BankConfig) (*StripeResult, error) {
	if err := cfg.Org.Validate(); err != nil {
		return nil, err
	}
	banks := cfg.Org.TotalBanks()
	if cfg.PriorMax != nil && len(cfg.PriorMax) != banks {
		return nil, fmt.Errorf("system: PriorMax has %d entries for %d banks", len(cfg.PriorMax), banks)
	}
	recompile := sim.RecompileEvery
	if recompile <= 0 || recompile > sim.Iterations {
		recompile = sim.Iterations
	}
	block := cfg.BlockIters
	if block <= 0 {
		block = recompile
	}
	if block%recompile != 0 {
		return nil, fmt.Errorf("system: block size %d is not a multiple of the recompile period %d", block, recompile)
	}
	// Validate the per-bank simulation parameters once, up front, against
	// the worst case (a bank receiving everything).
	probe := sim
	probe.RecompileEvery = recompile
	if err := probe.Validate(plan.Trace(), strat.Hw); err != nil {
		return nil, err
	}

	sp := obs.StartSpan("system.stripe")
	defer sp.End()
	obsStripes.Add(1)
	obsBanks.Observe(int64(banks))

	prior := func(b int) uint64 {
		if cfg.PriorMax == nil {
			return 0
		}
		return cfg.PriorMax[b]
	}
	endur := BankEndurances(banks, cfg.Endurance, cfg.Sigma, sim.Seed)

	assigned, blocksPer, spills, err := route(plan, sim, strat, cfg, recompile, block, prior)
	if err != nil {
		return nil, err
	}

	res := &StripeResult{
		Org: cfg.Org, Policy: cfg.Policy,
		TotalIterations: sim.Iterations, BlockIters: block,
		Banks:  make([]BankResult, banks),
		Spills: spills,
	}
	var touched []int
	for b := 0; b < banks; b++ {
		ch, g, i := cfg.Org.Position(b)
		res.Banks[b] = BankResult{
			Bank: b, Channel: ch, Group: g, Index: i,
			Iterations: assigned[b], Blocks: blocksPer[b],
			PriorMax: prior(b), Endurance: endur[b],
			IterationsToFailure: math.Inf(1),
		}
		if assigned[b] > 0 {
			touched = append(touched, b)
		}
	}
	res.BanksTouched = len(touched)

	// Phase 2: independent per-bank simulations against the one shared,
	// immutable plan — the embarrassingly parallel axis.
	bsp := obs.StartSpan("system.stripe/banks")
	errs := make([]error, len(touched))
	workers := pool.Size(sim.Workers, len(touched))
	inner := pool.Share(sim.Workers, workers)
	pool.ForEach(workers, len(touched), func(i int) {
		// One span per bank simulation under a single timer name: with
		// trace propagation through the pool, a serving job's per-bank
		// work shows up in its /jobs/<id>/trace export.
		simSp := obs.StartSpan("system.stripe/banks/sim")
		defer simSp.End()
		b := touched[i]
		bs := sim
		bs.Iterations = assigned[b]
		bs.RecompileEvery = recompile
		bs.Seed = sim.Seed + int64(b)
		bs.Workers = inner
		// A sampler records one trajectory and must not be shared across
		// concurrent banks; per-bank samplers are created below.
		bs.Sampler = nil
		var sampler *core.WearSampler
		if cfg.SampleEvery > 0 {
			name := fmt.Sprintf("%ssystem.%s.bank%03d", cfg.SeriesPrefix, cfg.Policy, b)
			sampler = core.NewWearSampler(name, cfg.SampleEvery, endur[b])
			bs.Sampler = sampler
		}
		dist, err := plan.Simulate(bs, strat)
		if err != nil {
			errs[i] = err
			return
		}
		obsBankSims.Add(1)
		br := &res.Banks[b]
		br.Dist = dist
		// One fused pass for max, mean and CoV — Max + Total + CoV each
		// rescanned the multi-megabyte distribution.
		sum := stats.Summarize(dist.Counts)
		br.MaxWrites = sum.Max
		br.MeanWrites = float64(sum.Total) / float64(sum.N)
		br.CoV = sum.CoV
		if sampler != nil {
			br.Wear = sampler.Series()
		}
	})
	bsp.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res.finishProjections(cfg)
	return res, nil
}

// finishProjections derives the lifetime and imbalance summaries from
// the per-bank distributions: bank-local iterations-to-failure, the
// across-bank CoV of effective wear, and the system-level sustainable
// iteration total (first bank failure at this stripe's proportions).
func (r *StripeResult) finishProjections(cfg BankConfig) {
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
		headroom := b.Endurance - float64(b.PriorMax)
		if headroom < 0 {
			headroom = 0
		}
		perIter := float64(b.MaxWrites) / float64(b.Iterations)
		b.IterationsToFailure = headroom / perIter
		// The whole workload advances TotalIterations for every
		// Iterations this bank absorbs; the system dies when its
		// weakest-headroom bank does.
		if t := headroom / float64(b.MaxWrites) * float64(r.TotalIterations); t < sys {
			sys = t
		}
	}
	r.SystemIterationsToFailure = sys
	n := float64(len(r.Banks))
	if mean := sum / n; mean > 0 {
		variance := sumsq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		r.BankCoV = math.Sqrt(variance) / mean
	}
	if cfg.SampleEvery > 0 {
		s := obs.NewSeries(cfg.SeriesPrefix+"system.banks."+cfg.Policy.String(),
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

// route is phase 1: walk the workload's blocks in order and pick a bank
// for each. Returns per-bank iteration and block tallies plus the
// locality spill count.
func route(plan *core.WearPlan, sim core.SimConfig, strat core.StrategyConfig, cfg BankConfig,
	recompile, block int, prior func(int) uint64) (assigned, blocksPer []int, spills int, err error) {
	banks := cfg.Org.TotalBanks()
	assigned = make([]int, banks)
	blocksPer = make([]int, banks)
	nBlocks := (sim.Iterations + block - 1) / block
	obsBlocks.Add(int64(nBlocks))

	// Wear-aware feedback: one serial incremental engine per bank,
	// created on a bank's first block (untouched banks score by prior
	// wear alone).
	var steppers []*core.Stepper
	if cfg.Policy == WearAware {
		steppers = make([]*core.Stepper, banks)
		// The steppers only steer routing: when it ends, their scratch
		// and counts buffers go back to the plan's arena. Release rather
		// than Finish, so core.writes keeps counting only the returned
		// per-bank distributions.
		defer func() {
			for _, st := range steppers {
				if st != nil {
					st.Release()
				}
			}
		}()
	}
	liveMax := func(b int) uint64 {
		m := prior(b)
		if steppers != nil && steppers[b] != nil {
			m += steppers[b].MaxWrites()
		}
		return m
	}

	// Locality state: groups activate in flat order; a group's banks are
	// contiguous in flat-id space, so the active set is a prefix.
	pressure := cfg.PressureIters
	if pressure <= 0 {
		pressure = (sim.Iterations + cfg.Org.TotalGroups() - 1) / cfg.Org.TotalGroups()
	}
	activeGroups, cursor := 1, 0

	totalAssigned := 0
	for k := 0; k < nBlocks; k++ {
		n := block
		if rem := sim.Iterations - k*block; rem < n {
			n = rem
		}
		var target int
		switch cfg.Policy {
		case RoundRobin:
			target = k % banks
		case WearAware:
			target = 0
			best := liveMax(0)
			for b := 1; b < banks; b++ {
				if m := liveMax(b); m < best {
					best, target = m, b
				}
			}
		case LocalityAware:
			for totalAssigned >= activeGroups*pressure && activeGroups < cfg.Org.TotalGroups() {
				activeGroups++
				spills++
				obsSpills.Add(1)
			}
			target = cursor % (activeGroups * cfg.Org.Banks)
			cursor++
		default:
			return nil, nil, 0, fmt.Errorf("system: unknown policy %v", cfg.Policy)
		}
		if steppers != nil {
			st := steppers[target]
			if st == nil {
				bc := sim
				bc.RecompileEvery = recompile
				bc.Seed = sim.Seed + int64(target)
				st, err = plan.NewStepper(bc, strat)
				if err != nil {
					return nil, nil, 0, err
				}
				steppers[target] = st
			}
			// A block is whole recompile epochs (plus the workload's short
			// tail inside the final block).
			for off := 0; off < n; off += recompile {
				e := recompile
				if n-off < e {
					e = n - off
				}
				st.Step(e)
			}
		}
		assigned[target] += n
		blocksPer[target]++
		totalAssigned += n
	}
	return assigned, blocksPer, spills, nil
}
