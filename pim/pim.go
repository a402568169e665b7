// Package pim is the public API of pimendure, a from-scratch Go
// reproduction of "On Endurance of Processing in (Nonvolatile) Memory"
// (Resch et al., ISCA 2023).
//
// The library models digital processing-in-memory (PIM) on nonvolatile
// arrays at instruction-level accuracy: workload kernels compile into
// sequential gate traces, traces execute on a bit-accurate array simulator
// or on a fast wear-accounting engine, and accumulated per-cell write
// distributions feed the paper's lifetime model (Eq. 4) under 18
// load-balancing configurations (3 within-lane × 3 between-lane software
// strategies × hardware renaming on/off).
//
// Typical use:
//
//	opt := pim.DefaultOptions()               // 1024×1024, NAND basis, presets on
//	bench, _ := pim.NewParallelMult(opt, 32)  // §4's first benchmark
//	res, _ := pim.Run(bench, opt, pim.RunConfig{Iterations: 10000, RecompileEvery: 100},
//	        pim.Strategy{Within: pim.Random, Between: pim.Static, Hw: true},
//	        pim.MRAM())
//	fmt.Println(res.Lifetime.Days(), "days")
package pim

import (
	"fmt"
	"io"
	"sort"

	"pimendure/internal/array"
	"pimendure/internal/baseline"
	"pimendure/internal/core"
	"pimendure/internal/device"
	"pimendure/internal/energy"
	"pimendure/internal/faults"
	"pimendure/internal/lifetime"
	"pimendure/internal/mapping"
	"pimendure/internal/obs"
	"pimendure/internal/opt"
	"pimendure/internal/pool"
	"pimendure/internal/program"
	"pimendure/internal/render"
	"pimendure/internal/stats"
	"pimendure/internal/synth"
	"pimendure/internal/system"
	"pimendure/internal/traceio"
	"pimendure/internal/workloads"
)

// Re-exported building blocks. The aliases keep one canonical definition in
// the internal packages while making the types part of the public API.
type (
	// Benchmark is a compiled workload with its functional reference model.
	Benchmark = workloads.Benchmark
	// Strategy is one load-balancing configuration (within×between[+Hw]).
	Strategy = core.StrategyConfig
	// WriteDist is an accumulated per-cell write distribution.
	WriteDist = core.WriteDist
	// Technology is an NVM device model (endurance + switching time).
	Technology = device.Technology
	// Lifetime is an Eq. 4 lifetime estimate.
	Lifetime = lifetime.Result
	// Grid is a dense matrix for heatmaps.
	Grid = stats.Grid
	// Summary is one pass's statistics of a write distribution: cell
	// count, max, total, mean and coefficient of variation.
	Summary = stats.Summary
	// FaultCurvePoint is one point of Fig. 11b's usable-vs-failed curve.
	FaultCurvePoint = faults.CurvePoint
	// EnergyModel carries per-cell access energies.
	EnergyModel = energy.Model
	// EnergyBreakdown splits a trace's energy by access type.
	EnergyBreakdown = energy.Breakdown
	// ChipConfig describes a multi-array accelerator.
	ChipConfig = system.Config
	// ChipEstimate is a chip-level replacement-time distribution.
	ChipEstimate = system.Estimate
	// WearSeries is a per-epoch wear telemetry trajectory (columns
	// epoch, iterations, max/mean/p99 writes, CoV, projected dead cells
	// and projected iterations to failure) recorded when
	// RunConfig.SampleEvery is set. The series also registers with the
	// observability layer, so CLIs export it as series_<name>.{csv,json}
	// and serve it live on -serve's /series endpoint.
	WearSeries = obs.Series
)

// Device energy models (orders of magnitude from the PIM literature).
var (
	MRAMEnergy   = energy.MRAM
	RRAMEnergy   = energy.RRAM
	PCMEnergy    = energy.PCM
	EnergyModels = energy.Models
)

// Observability handles (no-ops until internal/obs is enabled; CLIs do
// this via their obs.Run lifecycle).
var (
	obsRuns   = obs.GetCounter("pim.runs")
	obsSweeps = obs.GetCounter("pim.sweeps")
	// obsRunsReused counts the strategies of a sweep or fleet study that
	// took another strategy's distribution instead of simulating (see
	// sameDist).
	obsRunsReused = obs.GetCounter("pim.runs_reused")
)

// Software re-mapping strategies (§3.2).
const (
	Static    = mapping.Static
	Random    = mapping.Random
	ByteShift = mapping.ByteShift
)

// Device models from the paper's §2.1 survey; LookupTechnology finds one
// of Technologies by name, case-insensitively.
var (
	MRAM             = device.MRAM
	RRAM             = device.RRAM
	PCM              = device.PCM
	ProjectedMRAM    = device.ProjectedMRAM
	Technologies     = device.Technologies
	LookupTechnology = device.Lookup
)

// AllStrategies enumerates the paper's 18 configurations; StaticStrategy is
// the St×St baseline.
var (
	AllStrategies  = core.AllConfigs
	StaticStrategy = core.Static
)

// Options sizes the simulated PIM array and selects the gate basis.
type Options struct {
	// Lanes × Rows is the array size (the paper evaluates 1024×1024).
	Lanes, Rows int
	// PresetOutputs charges the CRAM-style output preset write before
	// every gate (§4 accounts for it; Pinatubo-style sense-amp designs
	// don't need it).
	PresetOutputs bool
	// NANDBasis selects the paper's NAND decomposition (true, default)
	// or the minimum two-input Mixed2 basis (false).
	NANDBasis bool
	// LowestFirstAlloc switches workspace reuse to the adversarial
	// lowest-address-first allocator (ablation; the default rotating
	// next-fit allocator matches the paper's simulator).
	LowestFirstAlloc bool
}

// DefaultOptions returns the paper's evaluation setup: a 1024×1024
// column-parallel array with output presetting, NAND basis.
func DefaultOptions() Options {
	return Options{Lanes: 1024, Rows: 1024, PresetOutputs: true, NANDBasis: true}
}

func (o Options) workloadConfig() workloads.Config {
	b := synth.Basis(synth.NAND)
	if !o.NANDBasis {
		b = synth.Mixed2
	}
	alloc := program.NextFit
	if o.LowestFirstAlloc {
		alloc = program.LowestFirst
	}
	return workloads.Config{Lanes: o.Lanes, Rows: o.Rows, Basis: b, Alloc: alloc}
}

// NewParallelMult compiles the embarrassingly parallel multiplication
// benchmark (§4) at the given operand precision.
func NewParallelMult(opt Options, bits int) (*Benchmark, error) {
	return workloads.ParallelMult(opt.workloadConfig(), bits)
}

// NewDotProduct compiles the n-element dot-product benchmark (§4).
func NewDotProduct(opt Options, n, bits int) (*Benchmark, error) {
	return workloads.DotProduct(opt.workloadConfig(), n, bits)
}

// NewConvolution compiles the convolution benchmark; groupLanes lanes
// cooperate per filter position, each performing multsPerLane sequential
// multiplications (§4 uses 4×3 at 8 bits).
func NewConvolution(opt Options, groupLanes, multsPerLane, bits int) (*Benchmark, error) {
	return workloads.Convolution(opt.workloadConfig(),
		workloads.ConvConfig{GroupLanes: groupLanes, MultsPerLane: multsPerLane, Bits: bits})
}

// NewVectorAdd compiles the parallel-addition extension benchmark.
func NewVectorAdd(opt Options, bits int) (*Benchmark, error) {
	return workloads.VectorAdd(opt.workloadConfig(), bits)
}

// NewBNNLayer compiles the binarized-neural-network extension benchmark:
// one n-synapse XNOR-popcount-threshold neuron per lane.
func NewBNNLayer(opt Options, synapses int) (*Benchmark, error) {
	return workloads.BNNLayer(opt.workloadConfig(), synapses)
}

// PaperBenchmarks compiles the paper's three kernels at their §4
// parameters: multiplication, convolution and dot-product, in that order.
func PaperBenchmarks(opt Options) ([]*Benchmark, error) {
	return workloads.PaperSuite(opt.workloadConfig())
}

// KernelParams are the optional parameters of a kernel compiled by name;
// a zero field takes the kernel's §4 default (see NewNamed).
type KernelParams = workloads.Params

// NewNamed compiles a kernel by name — "mult", "dot", "conv", "add" or
// "bnn", case-insensitively, plus the job server's aliases such as
// "multiplication" or "vector-add" — and returns it with the parameters
// it was compiled with. Zero parameters take the §4 defaults: 32-bit
// operands (8-bit for convolution), a dot-product as long as the largest
// power of two that fits opt.Lanes, a 4×3 convolution and a 64-synapse
// BNN neuron. Parameters the kernel ignores come back zero.
func NewNamed(opt Options, name string, p KernelParams) (*Benchmark, KernelParams, error) {
	return workloads.Named(opt.workloadConfig(), name, p)
}

// ResolveKernel is NewNamed without the compile: the kernel's canonical
// name and the parameters it would compile with on a lanes-wide array.
func ResolveKernel(name string, lanes int, p KernelParams) (string, KernelParams, error) {
	return workloads.Resolve(name, lanes, p)
}

// KernelNames lists the canonical kernel names NewNamed accepts.
func KernelNames() []string { return workloads.KernelNames() }

// RunConfig controls an endurance simulation.
type RunConfig struct {
	// Iterations is how many times the kernel repeats (§4: 100 000).
	Iterations int
	// RecompileEvery is the software re-mapping period (§4's headline
	// figures: 100); ≤ 0 disables re-mapping.
	RecompileEvery int
	// Seed drives the random-shuffle permutation sequence.
	Seed int64
	// Workers bounds the goroutines used by Sweep (across strategies)
	// and by the +Hw wear engine (across recompile epochs); ≤ 0 selects
	// runtime.GOMAXPROCS(0). Results are bit-identical for every worker
	// count.
	Workers int
	// SampleEvery, when > 0, records wear telemetry every SampleEvery
	// recompile epochs (plus always the final epoch) into
	// Result.Wear — live per-epoch max/mean/p99/CoV and lifetime
	// projections, with the series' heatmap served at
	// /wear.png?name=<series>. Sampling only ends the wear walker's
	// segments at the sampled epochs; the final distribution stays
	// bit-identical.
	SampleEvery int
	// SeriesPrefix scopes the wear-telemetry names a sampled run
	// registers ("<prefix>wear.<benchmark>.<strategy>"): a serving layer
	// sets a per-job prefix so concurrent requests' series, and the
	// heatmaps they carry, are discoverable — and removable — as a group.
	// Telemetry names have no effect on simulation results.
	SeriesPrefix string
}

// simConfig is the wear engine's configuration of a run against plan.
func (rc RunConfig) simConfig(plan *core.WearPlan) core.SimConfig {
	return core.SimConfig{
		Rows:           plan.Rows(),
		PresetOutputs:  plan.PresetOutputs(),
		Iterations:     rc.Iterations,
		RecompileEvery: rc.RecompileEvery,
		Seed:           rc.Seed,
		Workers:        rc.Workers,
	}
}

// Result is the outcome of one endurance run.
type Result struct {
	Benchmark string
	Strategy  Strategy
	// Dist is the accumulated write distribution. On a plan without
	// partial-mask writes, the strategies of one unsampled Sweep that
	// differ only in their between-lane strategy read one counts buffer
	// through aliases (see WriteDist.Alias): it is read-only, each
	// result's Release drops only its own view, and the buffer returns to
	// the plan's arena when the last of them is released.
	Dist *WriteDist
	// Summary is Dist's max, total, mean and CoV, computed once when the
	// run finished.
	Summary Summary
	// MaxWritesPerIteration is Eq. 4's max(WriteCount) normalized per
	// iteration.
	MaxWritesPerIteration float64
	// Utilization is the time-weighted fraction of active lanes
	// (Table 3).
	Utilization float64
	// Lifetime is the Eq. 4 estimate for the run's technology.
	Lifetime Lifetime
	// Imbalance is max/mean over cells that the benchmark can touch.
	Imbalance float64
	// Wear is the per-epoch telemetry trajectory, recorded when
	// RunConfig.SampleEvery > 0 (nil otherwise).
	Wear *WearSeries
}

// Run simulates the benchmark under one strategy and estimates lifetime on
// the given technology. It builds the per-benchmark simulation plan on
// demand; Sweep builds one plan and shares it across all strategies.
func Run(b *Benchmark, opt Options, rc RunConfig, s Strategy, tech Technology) (*Result, error) {
	return runPlanned(core.NewWearPlan(b.Trace, opt.Rows, opt.PresetOutputs), b, rc, s, tech)
}

// runPlanned is Run against a prebuilt WearPlan — the shared inner body
// of Run and Sweep.
func runPlanned(plan *core.WearPlan, b *Benchmark, rc RunConfig, s Strategy, tech Technology) (*Result, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	sp := obs.StartSpan("pim.run")
	defer sp.End()
	obsRuns.Add(1)
	sim := rc.simConfig(plan)
	var sampler *core.WearSampler
	if rc.SampleEvery > 0 {
		name := rc.SeriesPrefix + "wear." + b.Name + "." + s.Name()
		sampler = core.NewWearSampler(name, rc.SampleEvery, tech.Endurance)
		sim.Sampler = sampler
	}
	dist, err := plan.Simulate(sim, s)
	if err != nil {
		// The caller gets no Result, so nothing else could retire the
		// run's series (and the heatmap it carries).
		if sampler != nil {
			obs.RemoveSeries(sampler.Series().Name())
		}
		return nil, err
	}
	st := plan.Stats()
	// One fused pass over the distribution supplies both the lifetime
	// model's max-per-iteration and the imbalance factor.
	sum := stats.Summarize(dist.Counts)
	maxPerIter := 0.0
	if dist.Iterations > 0 {
		maxPerIter = float64(sum.Max) / float64(dist.Iterations)
	}
	model := lifetime.Model{Endurance: tech.Endurance, StepSeconds: tech.SwitchSeconds}
	lt, err := model.Estimate(maxPerIter, st.Steps)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Benchmark:             b.Name,
		Strategy:              s,
		Dist:                  dist,
		Summary:               sum,
		MaxWritesPerIteration: maxPerIter,
		Utilization:           st.Utilization,
		Lifetime:              lt,
		Imbalance:             sum.MaxOverMean(),
	}
	if sampler != nil {
		res.Wear = sampler.Series()
	}
	return res, nil
}

// Sweep runs the benchmark under every given strategy and returns
// results in the input order. A nil strategy list means all 18.
//
// Strategies are sharded over a bounded pool of rc.Workers goroutines
// (≤ 0 selects GOMAXPROCS) instead of one goroutine per strategy: the
// paper-scale sweep (18 strategies × 1024×1024 arrays) would otherwise
// oversubscribe the CPU and hold 18 histogram sets live at once. The
// worker budget is shared with the inner engines, so the total goroutine
// count stays near rc.Workers regardless of nesting.
//
// The per-benchmark WearPlan (flattened ops, factorized write matrix,
// trace statistics) is built once and shared by every strategy — the
// plan is immutable after construction, so the concurrent runs need no
// synchronization over it. On a plan without partial-mask writes an
// unsampled sweep simulates one strategy per (within, +Hw): the others
// of the group share its distribution (see Result.Dist), so the paper's
// multiplication runs 6 simulations for its 18 strategies.
func Sweep(b *Benchmark, opt Options, rc RunConfig, strategies []Strategy, tech Technology) ([]*Result, error) {
	results, _, err := uncached.Sweep(b, opt, rc, strategies, tech)
	return results, err
}

// sweepPlanned is Sweep against a prebuilt (possibly cached) WearPlan.
func sweepPlanned(plan *core.WearPlan, b *Benchmark, rc RunConfig, strategies []Strategy, tech Technology) ([]*Result, error) {
	if strategies == nil {
		strategies = AllStrategies()
	}
	// A sampled run registers a live series per strategy, so a sampled
	// sweep simulates each.
	var first []int
	if rc.SampleEvery == 0 {
		first = sameDist(plan, strategies)
	}
	var jobs []runJob
	for i, s := range strategies {
		if first == nil || first[i] == i {
			jobs = append(jobs, runJob{rc: rc, s: s, tech: tech})
		}
	}
	results, err := runAll(plan, b, rc.Workers, jobs)
	if err != nil || first == nil {
		return results, err
	}
	out := make([]*Result, len(strategies))
	next := 0
	for i, s := range strategies {
		if first[i] == i {
			out[i] = results[next]
			next++
			continue
		}
		alias := *out[first[i]]
		alias.Strategy = s
		alias.Dist = alias.Dist.Alias()
		out[i] = &alias
	}
	obsRunsReused.Add(int64(len(strategies) - len(jobs)))
	return out, nil
}

// runJob is one run of a runAll fan-out.
type runJob struct {
	rc   RunConfig
	s    Strategy
	tech Technology
}

// runAll runs every job through runPlanned against one shared plan and
// returns the results in job order — the fan-out behind Sweep and
// BankStripe. Jobs are sharded over a bounded pool of workers
// goroutines (≤ 0 selects GOMAXPROCS) instead of one goroutine each,
// and the budget is shared with the inner engines (each job's
// rc.Workers is overridden), so the total goroutine count stays near
// workers regardless of nesting.
func runAll(plan *core.WearPlan, b *Benchmark, workers int, jobs []runJob) ([]*Result, error) {
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	outer := pool.Size(workers, len(jobs))
	inner := pool.Share(workers, outer)
	pool.ForEach(outer, len(jobs), func(i int) {
		rc := jobs[i].rc
		rc.Workers = inner
		results[i], errs[i] = runPlanned(plan, b, rc, jobs[i].s, jobs[i].tech)
	})
	for _, err := range errs {
		if err != nil {
			// The caller gets no results, so nothing else could retire
			// the finished runs' series or release their distributions.
			for _, r := range results {
				if r != nil {
					if r.Wear != nil {
						obs.RemoveSeries(r.Wear.Name())
					}
					r.Dist.Release()
				}
			}
			return nil, err
		}
	}
	return results, nil
}

// sameDist maps each requested strategy to the index of the first
// requested strategy that accumulates the same distribution, or returns
// nil when every strategy must simulate on its own. On a plan without
// partial-mask writes the between-lane map never reaches the counts, so
// strategies with the same within strategy and +Hw flag are one
// simulation (TestFullMaskTracesIgnoreBetweenMaps proves it).
func sameDist(plan *core.WearPlan, strategies []Strategy) []int {
	if len(strategies) < 2 || plan.HasPartialMasks() {
		return nil
	}
	first := make([]int, len(strategies))
	shared := false
	for i, s := range strategies {
		first[i] = i
		for j := 0; j < i; j++ {
			if first[j] == j && strategies[j].Within == s.Within && strategies[j].Hw == s.Hw {
				first[i], shared = j, true
				break
			}
		}
	}
	if !shared {
		return nil
	}
	return first
}

// Improvements converts sweep results into Fig. 17's lifetime-improvement
// factors relative to the St×St baseline (which must be present), sorted
// descending. When the input contains several St×St results — e.g.
// concatenated sweeps — the first occurrence is the baseline,
// deterministically, regardless of what follows.
func Improvements(results []*Result) ([]Improvement, error) {
	var base *Result
	for _, r := range results {
		if r.Strategy == StaticStrategy {
			base = r
			break
		}
	}
	if base == nil {
		return nil, fmt.Errorf("pim: sweep has no St×St baseline")
	}
	out := make([]Improvement, 0, len(results))
	for _, r := range results {
		out = append(out, Improvement{
			Strategy: r.Strategy,
			Factor:   lifetime.Improvement(base.MaxWritesPerIteration, r.MaxWritesPerIteration),
			Result:   r,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Factor > out[j].Factor })
	return out, nil
}

// Improvement pairs a strategy with its lifetime factor over St×St.
type Improvement struct {
	Strategy Strategy
	Factor   float64
	Result   *Result
}

// Heatmap converts a write distribution into a normalized grid,
// downsampled to at most maxDim cells on each axis — the rendering behind
// Figs. 14–16.
func Heatmap(d *WriteDist, maxDim int) (*Grid, error) {
	return stats.Heatmap(d.Counts, d.Rows, d.Lanes, maxDim)
}

// WriteHeatmapPNG renders a normalized grid to PNG.
func WriteHeatmapPNG(w io.Writer, g *Grid, scale int) error {
	return render.HeatmapPNG(w, g, scale)
}

// WriteHeatmapPGM renders a normalized grid to plain PGM.
func WriteHeatmapPGM(w io.Writer, g *Grid) error {
	return render.HeatmapPGM(w, g)
}

// Verify executes one full iteration of the benchmark on the bit-accurate
// array simulator under the given strategy's epoch-0 layout and checks the
// results against the benchmark's reference model. data may be nil
// (all-zero operands).
func Verify(b *Benchmark, opt Options, s Strategy, data func(slot, lane int) bool) error {
	sim := core.SimConfig{Rows: opt.Rows, PresetOutputs: opt.PresetOutputs, Iterations: 1}
	var fn array.DataFunc
	if data != nil {
		fn = data
	}
	_, runner, err := core.BruteForce(b.Trace, sim, s, fn)
	if err != nil {
		return err
	}
	if data == nil {
		data = func(int, int) bool { return false }
	}
	return b.Check(data, runner.Out)
}

// SaveDist serializes a write distribution (versioned JSON).
func SaveDist(w io.Writer, d *WriteDist) error { return traceio.WriteDist(w, d) }

// LoadDist reads back a distribution written by SaveDist.
func LoadDist(r io.Reader) (*WriteDist, error) { return traceio.ReadDist(r) }

// SaveTrace serializes a benchmark's compiled trace (versioned JSON).
func SaveTrace(w io.Writer, b *Benchmark) error { return traceio.WriteTrace(w, b.Trace) }

// EnergyPerIteration prices one benchmark iteration on a device energy
// model (reads + writes, preset-inclusive when the options say so).
func EnergyPerIteration(b *Benchmark, opt Options, m energy.Model) (energy.Breakdown, error) {
	return energy.OfTrace(b.Trace, opt.PresetOutputs, m)
}

// OptimizeStats reports what Optimize did.
type OptimizeStats = opt.Stats

// Optimize runs the trace optimizer (copy propagation + dead-gate
// elimination) over a benchmark, returning a functionally identical
// benchmark with fewer gates — fewer time steps and fewer cell writes
// (§2.2: fewest gates is optimal for PIM). The reference checker carries
// over unchanged because the external data slots are preserved.
func Optimize(b *Benchmark) (*Benchmark, OptimizeStats) {
	tr, st := opt.Optimize(b.Trace, opt.All())
	return &Benchmark{
		Name:        b.Name,
		Description: b.Description + " (optimized)",
		Trace:       tr,
		Check:       b.Check,
	}, st
}

// ChipLifetime lifts a single-array lifetime to a whole accelerator
// (§4's replacement scenario): the exact order statistic of lognormal
// array-to-array variation, with spare arrays and a duty cycle.
func ChipLifetime(arrayLife Lifetime, cfg ChipConfig) (ChipEstimate, error) {
	return system.ChipLifetime(arrayLife.Seconds, cfg)
}

// UpperBoundOps is Eq. 1: operations an array sustains under perfect
// balancing.
func UpperBoundOps(rows, lanes int, tech Technology, writesPerOp float64) float64 {
	return lifetime.UpperBoundOps(rows, lanes, tech.Endurance, writesPerOp)
}

// UpperBoundSeconds is Eq. 2: seconds to total break-down at full
// utilization.
func UpperBoundSeconds(rows, lanes int, tech Technology) float64 {
	return lifetime.UpperBoundSeconds(rows, lanes, tech.Endurance, tech.SwitchSeconds)
}

// WriteAmplification is §3.1's PIM-vs-conventional write ratio for a b-bit
// multiply (153.5× at 32 bits in the NAND basis).
func WriteAmplification(opt Options, bits int) float64 {
	b := synth.Basis(synth.NAND)
	if !opt.NANDBasis {
		b = synth.Mixed2
	}
	return baseline.WriteAmplification(b, bits)
}

// UsableFraction is Fig. 11b's closed form: expected usable fraction of
// each lane when failedFrac of the array's cells have failed.
func UsableFraction(lanes int, failedFrac float64) float64 {
	return faults.UsableFractionExpected(lanes, failedFrac)
}

// FaultCurve computes Fig. 11b for a rows×lanes array: the exact
// expected usable fraction of each lane next to the closed form.
func FaultCurve(rows, lanes int, failedFracs []float64) ([]FaultCurvePoint, error) {
	return faults.UsableCurve(rows, lanes, failedFracs)
}
