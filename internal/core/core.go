// Package core is the endurance characterization engine — the paper's
// primary contribution. It accumulates per-cell write distributions for a
// PIM workload executed for many iterations under each of the 18
// load-balancing configurations of §4 (3 within-lane × 3 between-lane
// software strategies × hardware re-mapping on/off), from which array
// lifetime is estimated (Eq. 4).
//
// Simulate is the one fast engine. Every configuration reduces to one
// computation: for each recompile epoch, relabel a base write histogram
// by the epoch's within-lane map and land it through its between-lane map
// (land.go). The base is the one-iteration write matrix times the epoch
// length under software re-mapping, and under +Hw the renamer's
// identity-map replay of an epoch of that length, built in closed form
// once per length and run (hw_engine.go). A
// segment-ordered walker (walk.go) over a shared per-benchmark WearPlan
// (plan.go) groups epochs with identical landings, shards them over a
// bounded worker pool (SimConfig.Workers), and stops at the sampler's due
// epochs so every sample is a true prefix. Results are bit-identical for
// every worker count and sampling cadence. Stepper (stepper.go) lands the
// same primitives one epoch per call.
//
// Two oracles cross-validate it in the test suite: SimulateReference, the
// serial epoch-by-epoch engine that replays every op of every +Hw
// iteration, and BruteForceReference, the functional array simulator
// executing every iteration cell by cell. BruteForce is the same
// simulator on the word-parallel runner.
package core

import (
	"fmt"
	"runtime"

	"pimendure/internal/array"
	"pimendure/internal/mapping"
	"pimendure/internal/obs"
	"pimendure/internal/program"
)

// Observability handles (no-ops until obs.Enable). Recording happens at
// run/epoch/replay granularity only — never inside the per-op replay loop —
// so a disabled build stays within BenchmarkHwEngine's <2% budget.
var (
	// obsEpochs counts recompile epochs simulated (software and +Hw).
	obsEpochs = obs.GetCounter("core.epochs")
	// obsHwReplays counts +Hw replays: one per distinct epoch length of
	// each +Hw Simulate, and per change of length in a Stepper.
	obsHwReplays = obs.GetCounter("core.hw.replays")
	// obsHwMemoHits counts +Hw epochs landed from a replay already run;
	// replays + memo_hits equals the +Hw epochs simulated.
	obsHwMemoHits = obs.GetCounter("core.hw.memo_hits")
	// obsHwReplayIters counts iterations actually replayed op-by-op: one
	// recording iteration per replay.
	obsHwReplayIters = obs.GetCounter("core.hw.replay_iters")
	// obsHwReplayItersSaved counts epoch-iterations NOT replayed thanks
	// to the shared replays and cycle acceleration; replay_iters + this
	// equals the total +Hw epoch-iterations simulated.
	obsHwReplayItersSaved = obs.GetCounter("core.hw.replay_iters_saved")
	// obsHwCycleLen accumulates the analytic renamer period of each +Hw
	// simulation (mapping.AnalyzeRenamerCycle) — the per-run cycle
	// length a manifest surfaces next to replay_iters_saved.
	obsHwCycleLen = obs.GetCounter("core.hw.cycle_len")
	// obsWrites totals cell writes accumulated into distributions; a
	// run's manifest entry equals the sum of its WriteDist.Total()s.
	obsWrites = obs.GetCounter("core.writes")
)

// StrategyConfig is one of the paper's load-balancing configurations,
// labelled "within×between[+Hw]" (e.g. RaxBs+Hw).
type StrategyConfig struct {
	// Within re-maps bit addresses inside lanes (rows, §3.2 "within
	// lanes"); Between re-maps lanes (columns, "between lanes").
	Within, Between mapping.Strategy
	// Hw enables hardware free-bit renaming on every full-lane write.
	Hw bool
}

// Name returns the paper's label for the configuration, e.g. "StxRa" or
// "BsxBs+Hw".
func (c StrategyConfig) Name() string {
	n := c.Within.String() + "x" + c.Between.String()
	if c.Hw {
		n += "+Hw"
	}
	return n
}

// Static is the no-balancing baseline St×St.
var Static = StrategyConfig{Within: mapping.Static, Between: mapping.Static}

// AllConfigs enumerates the full 18-configuration space in the paper's
// presentation order (Figs. 14–16: row strategy × column strategy, then
// the same nine with +Hw).
func AllConfigs() []StrategyConfig {
	var out []StrategyConfig
	for _, hw := range []bool{false, true} {
		for _, between := range mapping.Strategies() {
			for _, within := range mapping.Strategies() {
				out = append(out, StrategyConfig{Within: within, Between: between, Hw: hw})
			}
		}
	}
	return out
}

// SoftwareConfigs enumerates the nine software-only configurations. The
// returned slice is a fresh copy: it never aliases AllConfigs' backing
// array, so callers may append to it freely.
func SoftwareConfigs() []StrategyConfig {
	all := AllConfigs()
	out := make([]StrategyConfig, 9)
	copy(out, all[:9])
	return out
}

// SimConfig controls a wear simulation.
type SimConfig struct {
	// Rows is the physical bit-address count per lane (1024 in §4).
	Rows int
	// PresetOutputs charges the CRAM-style output preset write (§4).
	PresetOutputs bool
	// Iterations is how many times the benchmark repeats (§4: 100 000).
	Iterations int
	// RecompileEvery is the software re-mapping period in iterations
	// (§4 sweeps 10…10 000; the headline figures use 100). Values ≤ 0
	// disable software re-mapping (a single epoch).
	RecompileEvery int
	// Seed drives the Ra permutation sequence.
	Seed int64
	// ShiftStep overrides the Bs rotation per epoch (0 = one byte);
	// negative steps are rejected by Validate.
	ShiftStep int
	// Workers bounds the goroutines the engine shards each segment's
	// unique epoch groups over (software and +Hw alike); ≤ 0 selects
	// runtime.GOMAXPROCS(0). The accumulated distribution is bit-identical
	// for every worker count.
	Workers int
	// Sampler, when non-nil, observes the accumulating distribution after
	// each sampled recompile epoch (wear telemetry). The engine's walk ends
	// a segment at every sampled epoch, so every sample is a true prefix
	// of the final distribution. Results stay bit-identical to an
	// unsampled run.
	Sampler *WearSampler
}

func (c SimConfig) recompileEvery() int {
	if c.RecompileEvery <= 0 {
		return c.Iterations
	}
	return c.RecompileEvery
}

// epochs returns the run's recompile epoch count.
func (c SimConfig) epochs() int {
	every := c.recompileEvery()
	return (c.Iterations + every - 1) / every
}

// epochLen returns an epoch's iteration count: recompileEvery, except a
// short final epoch.
func (c SimConfig) epochLen(epoch int) int {
	every := c.recompileEvery()
	return min(every, c.Iterations-epoch*every)
}

func (c SimConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// archRows returns the architectural row count: +Hw reserves one
// physical row for the renamer's free slot.
func (c SimConfig) archRows(hw bool) int {
	if hw {
		return c.Rows - 1
	}
	return c.Rows
}

// schedule returns the strategy's mapping schedule over a lanes-wide
// array.
func (c SimConfig) schedule(lanes int, strat StrategyConfig) mapping.Schedule {
	return mapping.Schedule{
		Rows: c.archRows(strat.Hw), Lanes: lanes,
		Within: strat.Within, Between: strat.Between,
		Seed: c.Seed, ShiftStep: c.ShiftStep,
	}
}

// Validate checks the simulation parameters against a trace.
func (c SimConfig) Validate(tr *program.Trace, hw bool) error {
	if c.Rows <= 1 {
		return fmt.Errorf("core: need at least 2 rows, got %d", c.Rows)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("core: iterations must be positive, got %d", c.Iterations)
	}
	if c.ShiftStep < 0 {
		return fmt.Errorf("core: shift step must be non-negative (0 = one byte), got %d", c.ShiftStep)
	}
	if arch := c.archRows(hw); tr.LaneBits > arch {
		return fmt.Errorf("core: trace needs %d bit addresses, only %d available (rows=%d, hw=%v)",
			tr.LaneBits, arch, c.Rows, hw)
	}
	return nil
}

// WriteDist is an accumulated per-cell write-count distribution over a
// whole simulation — the quantity behind the paper's heatmaps (Figs.
// 14–16) and lifetime estimates.
type WriteDist struct {
	Rows, Lanes int
	// Counts is indexed [row*Lanes+lane].
	Counts []uint64
	// Iterations the distribution was accumulated over.
	Iterations int
	// StepsPerIteration is the benchmark's sequential latency (Eq. 4's
	// Application Latency in device steps).
	StepsPerIteration int

	// release, when non-nil, returns Counts to the arena of the WearPlan
	// that produced this distribution (see WriteDist.Release).
	release func([]uint64)
}

// NewWriteDist allocates a zeroed distribution.
func NewWriteDist(rows, lanes int) *WriteDist {
	return &WriteDist{Rows: rows, Lanes: lanes, Counts: make([]uint64, rows*lanes)}
}

// Release hands the distribution's counts buffer back to the arena of
// the WearPlan that produced it, making the buffer available to the next
// simulation against that plan. After Release the distribution must not
// be read again — Counts is nil. Calling Release on a distribution that
// did not come from a plan (or twice) is a safe no-op; it is always
// optional, as an unreleased buffer is simply collected by the GC.
func (d *WriteDist) Release() {
	if d == nil || d.release == nil || d.Counts == nil {
		return
	}
	rel, buf := d.release, d.Counts
	d.release, d.Counts = nil, nil
	rel(buf)
}

// At returns the write count of cell (row, lane).
func (d *WriteDist) At(row, lane int) uint64 { return d.Counts[row*d.Lanes+lane] }

// Checksum returns the FNV-64a hash of the per-cell counts, each hashed
// as 8 little-endian bytes, formatted as 16 hex digits: the job server's
// dist_fnv, the bit-identity witness for cached-vs-cold comparisons. The
// bytes are hashed inline rather than through hash.Hash. bench/golden.go
// keeps its own copy, because the benchmark's sources change only with
// the benchmark, whose golden file (bench/golden/seed1.json) pins these
// values.
func (d *WriteDist) Checksum() string {
	const prime = 1099511628211
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for _, c := range d.Counts {
		h = (h ^ c&0xff) * prime
		h = (h ^ c>>8&0xff) * prime
		h = (h ^ c>>16&0xff) * prime
		h = (h ^ c>>24&0xff) * prime
		h = (h ^ c>>32&0xff) * prime
		h = (h ^ c>>40&0xff) * prime
		h = (h ^ c>>48&0xff) * prime
		h = (h ^ c>>56) * prime
	}
	return fmt.Sprintf("%016x", h)
}

// Max returns the hottest cell's count — Eq. 4's max(WriteCount).
func (d *WriteDist) Max() uint64 {
	var m uint64
	for _, c := range d.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Total sums all cell counts.
func (d *WriteDist) Total() uint64 {
	var t uint64
	for _, c := range d.Counts {
		t += c
	}
	return t
}

// Equal reports whether two distributions are cell-for-cell identical
// (cross-validation of the two engines).
func (d *WriteDist) Equal(o *WriteDist) bool {
	if d.Rows != o.Rows || d.Lanes != o.Lanes {
		return false
	}
	for i := range d.Counts {
		if d.Counts[i] != o.Counts[i] {
			return false
		}
	}
	return true
}

// Simulate accumulates the write distribution of running tr for
// cfg.Iterations under one load-balancing configuration, using the
// factorized fast engine. It builds a fresh WearPlan per call; callers
// simulating several strategies over the same trace (a sweep) should
// build one plan with NewWearPlan and call its Simulate method so the
// per-benchmark precomputation is paid once.
func Simulate(tr *program.Trace, cfg SimConfig, strat StrategyConfig) (*WriteDist, error) {
	return NewWearPlan(tr, cfg.Rows, cfg.PresetOutputs).Simulate(cfg, strat)
}

// BruteForce accumulates the same distribution by executing every
// iteration on the functional array simulator under the identical mapping
// schedule. data supplies operand values (nil for all-zero). It is slow
// relative to Simulate — it computes real Boolean values — and exists to
// validate Simulate and to drive functional checks. It runs serially on
// the array package's word-parallel runner (64 lanes per machine word),
// so cfg.Workers is ignored; BruteForceReference is the cell-at-a-time
// variant.
func BruteForce(tr *program.Trace, cfg SimConfig, strat StrategyConfig, data array.DataFunc) (*WriteDist, *array.Runner, error) {
	return bruteForce(tr, cfg, strat, data, array.NewRunner)
}

// BruteForceReference is BruteForce on the scalar cell-at-a-time runner
// (array.NewScalarRunner). Results are bit-identical to BruteForce; it
// exists as the ground truth for the word-parallel path's identity tests
// and as the baseline its speedup is benchmarked against.
func BruteForceReference(tr *program.Trace, cfg SimConfig, strat StrategyConfig, data array.DataFunc) (*WriteDist, *array.Runner, error) {
	return bruteForce(tr, cfg, strat, data, array.NewScalarRunner)
}

func bruteForce(tr *program.Trace, cfg SimConfig, strat StrategyConfig, data array.DataFunc,
	newRunner func(*array.Array, *program.Trace, array.Mapper, array.DataFunc) (*array.Runner, error)) (*WriteDist, *array.Runner, error) {
	if err := cfg.Validate(tr, strat.Hw); err != nil {
		return nil, nil, err
	}
	var hw *mapping.HwRenamer
	if strat.Hw {
		hw = mapping.NewHwRenamer(cfg.Rows)
	}
	sched := cfg.schedule(tr.Lanes, strat)
	arr := array.New(array.Config{BitsPerLane: cfg.Rows, Lanes: tr.Lanes, PresetOutputs: cfg.PresetOutputs})
	m := array.Mapper{Within: sched.EpochWithin(0), Between: sched.EpochBetween(0), Hw: hw}
	runner, err := newRunner(arr, tr, m, data)
	if err != nil {
		return nil, nil, err
	}

	every := cfg.recompileEvery()
	epoch := 0
	for it := 0; it < cfg.Iterations; it++ {
		if e := it / every; e != epoch {
			epoch = e
			if err := runner.Remap(sched.EpochWithin(epoch), sched.EpochBetween(epoch)); err != nil {
				return nil, nil, err
			}
		}
		runner.RunIteration()
	}

	dist := NewWriteDist(cfg.Rows, tr.Lanes)
	dist.Iterations = cfg.Iterations
	dist.StepsPerIteration = tr.Steps(cfg.PresetOutputs)
	arr.WriteCountsInto(dist.Counts)
	return dist, runner, nil
}

// LaneProfile returns the per-bit-address write and read counts that one
// iteration of the trace induces in a single lane under the as-compiled
// (identity) layout — the paper's Fig. 5. Entries are indexed by logical
// bit address, 0..LaneBits-1.
func LaneProfile(tr *program.Trace, preset bool, lane int) (writes, reads []int64) {
	writes = make([]int64, tr.LaneBits)
	reads = make([]int64, tr.LaneBits)
	for _, op := range tr.Ops {
		mask := tr.Mask(op.Mask)
		inMask := mask.Get(lane)
		switch op.Kind {
		case program.OpGate:
			if !inMask {
				continue
			}
			writes[op.Out] += int64(op.WritesPerLane(preset))
			reads[op.In0]++
			if op.Gate.Arity() == 2 {
				reads[op.In1]++
			}
		case program.OpWrite:
			if inMask {
				writes[op.Out]++
			}
		case program.OpRead:
			if inMask {
				reads[op.In0]++
			}
		case program.OpMove:
			if inMask {
				writes[op.Out]++
			}
			// The read happens in the shifted source lane: this lane
			// is read iff the destination lane it would feed,
			// lane − shift, is in the (destination) mask.
			dstLane := lane - int(op.LaneShift)
			if dstLane >= 0 && dstLane < tr.Lanes && mask.Get(dstLane) {
				reads[op.In0]++
			}
		}
	}
	return writes, reads
}
