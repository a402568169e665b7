// The fleet-survival facade: B-life quantiles (B1/B10/B50 — iterations
// by which 1%/10%/50% of a device fleet has seen its first cell failure)
// for every strategy × technology × σ combination of one benchmark, on
// the internal/fleet order-statistic engine.
//
// The paper ranks configurations by the deterministic Eq. 4 lifetime
// (Fig. 17), which is the fleet *median* under symmetric variability.
// Fleet operators care about the warranty tail instead: the B1 life of a
// million-device population. Fleet computes both in one pass so the two
// rankings can be compared directly (see cmd/fleet and EXPERIMENTS.md).
//
// The work factors exactly along the engine's reuse boundaries:
//
//   - the WearPlan is per-benchmark (shared across all strategies, and
//     across calls via PlanCache.Fleet);
//   - the simulated write distribution and its group collapse are
//     per-strategy (technologies and σ never touch the simulator);
//   - the hazard-inverse table and the device draws are per-(strategy,
//     σ), shared by every technology, whose median endurance only
//     scales each drawn lifetime (fleet.SurviveMedians).
//
// So an 18-strategy × 4-technology × 3-σ study runs 18 simulations, 54
// table builds and 54 draw passes — not 216 of each — and each draw
// pass costs one hazard inversion per device plus one multiply-add per
// device and technology.
package pim

import (
	"fmt"

	"pimendure/internal/core"
	"pimendure/internal/fleet"
	"pimendure/internal/obs"
)

// obsFleets counts fleet-survival studies (one per Fleet call).
var obsFleets = obs.GetCounter("pim.fleets")

// DefaultFleetSigma is the lognormal shape used when FleetConfig leaves
// Sigmas empty — the middle of the 0.3–1 spread reported for NVM
// endurance variability.
const DefaultFleetSigma = 0.3

// FleetConfig sizes a fleet-survival study.
type FleetConfig struct {
	// Devices is the simulated fleet population per sweep point (must be
	// positive; 10⁵–10⁷ is cheap on the fleet engine).
	Devices int
	// Sigmas are the lognormal endurance shapes to sweep; empty selects
	// {DefaultFleetSigma}.
	Sigmas []float64
	// Seed fixes the draw streams. Every sweep point reuses the same
	// seed deliberately — common random numbers: all points see the same
	// fleet of Exp(1) draws, so cross-point comparisons (the B1 ranking)
	// are free of Monte Carlo noise between points. The technologies of
	// one strategy × σ go further and share the draws themselves: each
	// device is inverted once and its lifetime scaled by each
	// technology's median endurance, bit-identical to drawing each
	// technology on its own.
	Seed int64
	// Series, when non-nil, receives per-draw-batch progress rows with
	// the cumulative device count across the whole study (a batch
	// counts its devices once per technology, so the last row is points
	// × devices) — the serving layer's progress feed. Must have exactly
	// one column.
	Series *WearSeries
}

// FleetPoint is one strategy × technology × σ cell of a fleet study.
type FleetPoint struct {
	Benchmark  string
	Strategy   Strategy
	Technology Technology
	Sigma      float64
	// Devices is the simulated population size.
	Devices int
	// Groups and Cells describe the order-statistic collapse: distinct
	// write-count groups versus written cells per device.
	Groups, Cells int
	// MeanIterations is the fleet-mean first-failure iteration count.
	MeanIterations float64
	// Quantiles holds the B1, B10 and B50 iteration counts, in that order
	// (fleet.DefaultQuantiles).
	Quantiles []float64
	// DeterministicIterations is the paper's uniform-endurance Eq. 4
	// value — the Fig. 17 ranking metric — for comparison.
	DeterministicIterations float64
	// StepsPerIteration is the benchmark's sequential latency, for
	// converting iterations to wall-clock time.
	StepsPerIteration int
}

// Seconds converts an iteration count of this point (a B-life, the mean,
// or the deterministic value) to wall-clock seconds on the point's
// technology.
func (p FleetPoint) Seconds(iterations float64) float64 {
	return iterations * float64(p.StepsPerIteration) * p.Technology.SwitchSeconds
}

// Fleet runs a fleet-survival study: it simulates the benchmark once per
// strategy, collapses each write distribution into write-count groups,
// and draws fc.Devices devices per σ against each, every technology
// scaling the same draws by its median endurance. A nil strategy list
// means all 18; a nil technology list means the paper's four device
// models. Points are ordered strategy-major, then technology, then σ.
func Fleet(b *Benchmark, opt Options, rc RunConfig, strategies []Strategy, techs []Technology, fc FleetConfig) ([]FleetPoint, error) {
	sp := obs.StartSpan("pim.fleet")
	defer sp.End()
	obsFleets.Add(1)
	plan := core.NewWearPlan(b.Trace, opt.Rows, opt.PresetOutputs)
	return fleetPlanned(plan, b, rc, strategies, techs, fc)
}

// Fleet is the cache-aware fleet entry point: identical to Fleet except
// the per-benchmark WearPlan is reused across calls when the benchmark
// fingerprint matches, with the same hit semantics as PlanCache.Sweep.
func (c *PlanCache) Fleet(b *Benchmark, opt Options, rc RunConfig, strategies []Strategy, techs []Technology, fc FleetConfig) (points []FleetPoint, hit bool, err error) {
	sp := obs.StartSpan("pim.fleet")
	defer sp.End()
	obsFleets.Add(1)
	plan, hit := c.Plan(b, opt)
	points, err = fleetPlanned(plan, b, rc, strategies, techs, fc)
	return points, hit, err
}

// fleetPlanned is Fleet against a prebuilt (possibly cached) WearPlan —
// the shared inner body of Fleet and PlanCache.Fleet.
//
// Strategies run sequentially, each handing the full rc.Workers budget
// to its simulator, its table builds and its draws: unlike Sweep's
// strategy-sharded fan-out, the fleet draws inside one strategy already
// parallelize perfectly, and holding one write distribution at a time
// keeps the study's footprint at one histogram set regardless of how
// many of the 18 strategies it covers.
func fleetPlanned(plan *core.WearPlan, b *Benchmark, rc RunConfig, strategies []Strategy, techs []Technology, fc FleetConfig) ([]FleetPoint, error) {
	if fc.Devices <= 0 {
		return nil, fmt.Errorf("pim: fleet devices must be positive, got %d", fc.Devices)
	}
	if strategies == nil {
		strategies = AllStrategies()
	}
	if techs == nil {
		techs = Technologies()
	}
	for _, t := range techs {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	sigmas := fc.Sigmas
	if len(sigmas) == 0 {
		sigmas = []float64{DefaultFleetSigma}
	}
	for _, s := range sigmas {
		if s < 0 {
			return nil, fmt.Errorf("pim: negative fleet sigma %v", s)
		}
	}

	medians := make([]float64, len(techs))
	for i, tech := range techs {
		medians[i] = tech.Endurance
	}
	perStrategy := len(techs) * len(sigmas)
	points := make([]FleetPoint, len(strategies)*perStrategy)
	var seriesBase float64
	for si, s := range strategies {
		dist, err := plan.Simulate(rc.simConfig(plan), s)
		if err != nil {
			return nil, err
		}
		g, err := fleet.GroupCounts(dist.Counts, dist.Iterations)
		if err != nil {
			return nil, fmt.Errorf("pim: fleet %s/%s: %w", b.Name, s.Name(), err)
		}
		steps := dist.StepsPerIteration
		// The groups carry everything the draws need; the histogram goes
		// back to the plan's arena before the next strategy simulates.
		dist.Release()
		// One draw pass per σ serves every technology: a technology's
		// median endurance only scales the drawn lifetimes.
		for k, sigma := range sigmas {
			res, err := fleet.SurviveMedians(g, sigma, medians, fleet.Params{
				Devices:    fc.Devices,
				Seed:       fc.Seed,
				Workers:    rc.Workers,
				Series:     fc.Series,
				SeriesBase: seriesBase,
			})
			if err != nil {
				return nil, fmt.Errorf("pim: fleet %s/%s: %w", b.Name, s.Name(), err)
			}
			seriesBase += float64(fc.Devices * len(techs))
			for ti, r := range res {
				points[si*perStrategy+ti*len(sigmas)+k] = FleetPoint{
					Benchmark:               b.Name,
					Strategy:                s,
					Technology:              techs[ti],
					Sigma:                   sigma,
					Devices:                 r.Devices,
					Groups:                  r.Groups,
					Cells:                   r.Cells,
					MeanIterations:          r.Mean,
					Quantiles:               r.Quantiles,
					DeterministicIterations: r.DeterministicIterations,
					StepsPerIteration:       steps,
				}
			}
		}
	}
	return points, nil
}
