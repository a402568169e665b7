// The multi-bank scheduler. A multi-bank organization is N banks, each
// its own array running the same kernel, so a striped run is one run of
// the kernel per bank, each with its own iteration count, seed and
// endurance. This file decides the iteration counts: Route walks the
// workload's recompile-aligned blocks in order and assigns each to a
// bank under a Policy. Only the wear-aware policy needs live feedback;
// it steps a serial core.Stepper per bank and routes each block to the
// bank with the lowest prior + live hottest-cell count.
//
// Simulating the banks is not the scheduler's job: pim.BankStripe runs
// every touched bank through the same run body as pim.Run and pim.Sweep
// and projects the system lifetime from the per-bank results. The two
// compose exactly: a bank that received k full blocks plus (possibly)
// the workload's short final block sees the same epoch-length sequence
// as a standalone run of its assigned iteration count, so every per-bank
// distribution is bit-identical to core.SimulateReference over that
// bank's configuration (asserted in pim/banks_test.go).
package system

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"pimendure/internal/core"
	"pimendure/internal/device"
	"pimendure/internal/obs"
	"pimendure/internal/stats"
)

// Organization is the bank hierarchy of a multi-bank PIM device —
// channels × bank groups × banks, every bank an independent array. The
// canonical definition (and the DDR4/HBM3 presets) lives in
// internal/device next to the technology models.
type Organization = device.Organization

// Observability handles (no-ops until obs.Enable).
var (
	// obsStripes counts Route calls.
	obsStripes = obs.GetCounter("system.stripes")
	// obsBlocks counts iteration blocks routed across banks.
	obsBlocks = obs.GetCounter("system.blocks")
	// obsSpills counts locality-aware bank-group spills.
	obsSpills = obs.GetCounter("system.spills")
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
// budget, array geometry) ride in the core.SimConfig passed to Route;
// bank b runs with Seed+b, so banks draw independent random schedules
// yet stay reproducible from one run seed.
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
	// Sigma is the lognormal shape of bank-to-bank endurance variation;
	// bank endurances are drawn by BankEndurances from the run seed, so
	// variation experiments reproduce (0 = identical banks).
	Sigma float64
}

// Routing is the scheduler's assignment of a workload's blocks to the
// banks of an organization.
type Routing struct {
	// RecompileEvery and BlockIters are the resolved recompile period
	// and scheduling block; every bank runs with this recompile period.
	RecompileEvery, BlockIters int
	// Iterations and Blocks are the per-bank tallies in flat-id order
	// (zero for untouched banks).
	Iterations, Blocks []int
	// Spills counts locality-aware group activations beyond the first.
	Spills int
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

// Route stripes sim.Iterations in recompile-aligned blocks over
// cfg.Org's banks under cfg.Policy. sim carries the per-bank run
// parameters; bank b runs with seed sim.Seed+b. Route validates them
// once, against the worst case of one bank receiving everything, so a
// routing that succeeds leaves every bank a valid run.
func Route(plan *core.WearPlan, sim core.SimConfig, strat core.StrategyConfig, cfg BankConfig) (Routing, error) {
	if err := cfg.Org.Validate(); err != nil {
		return Routing{}, err
	}
	banks := cfg.Org.TotalBanks()
	if cfg.PriorMax != nil && len(cfg.PriorMax) != banks {
		return Routing{}, fmt.Errorf("system: PriorMax has %d entries for %d banks", len(cfg.PriorMax), banks)
	}
	if !slices.Contains(Policies(), cfg.Policy) {
		return Routing{}, fmt.Errorf("system: unknown policy %v", cfg.Policy)
	}
	if err := sim.Validate(plan.Trace(), strat.Hw); err != nil {
		return Routing{}, err
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
		return Routing{}, fmt.Errorf("system: block size %d is not a multiple of the recompile period %d", block, recompile)
	}

	sp := obs.StartSpan("system.stripe")
	defer sp.End()
	obsStripes.Add(1)
	obsBanks.Observe(int64(banks))
	rt := Routing{
		RecompileEvery: recompile, BlockIters: block,
		Iterations: make([]int, banks), Blocks: make([]int, banks),
	}
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
		// than Finish, so core.writes keeps counting only the banks'
		// returned distributions.
		defer func() {
			for _, st := range steppers {
				if st != nil {
					st.Release()
				}
			}
		}()
	}
	liveMax := func(b int) uint64 {
		var m uint64
		if cfg.PriorMax != nil {
			m = cfg.PriorMax[b]
		}
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
			best := liveMax(0)
			for b := 1; b < banks; b++ {
				if m := liveMax(b); m < best {
					best, target = m, b
				}
			}
		case LocalityAware:
			for totalAssigned >= activeGroups*pressure && activeGroups < cfg.Org.TotalGroups() {
				activeGroups++
				rt.Spills++
				obsSpills.Add(1)
			}
			target = cursor % (activeGroups * cfg.Org.Banks)
			cursor++
		}
		if steppers != nil {
			st := steppers[target]
			if st == nil {
				bc := sim
				bc.RecompileEvery = recompile
				bc.Seed = sim.Seed + int64(target)
				var err error
				if st, err = plan.NewStepper(bc, strat); err != nil {
					return Routing{}, err
				}
				steppers[target] = st
			}
			// A block is whole recompile epochs (plus the workload's short
			// tail inside the final block).
			for off := 0; off < n; off += recompile {
				st.Step(min(recompile, n-off))
			}
		}
		rt.Iterations[target] += n
		rt.Blocks[target]++
		totalAssigned += n
	}
	return rt, nil
}
