package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"pimendure/internal/core"
	"pimendure/internal/fleet"
	"pimendure/internal/lifetime"
	"pimendure/internal/obs"
	"pimendure/internal/pool"
	"pimendure/internal/stats"
	"pimendure/pim"
)

// The paper's §4 run: 100 000 iterations, software re-mapping every 100,
// on MRAM, on the 1024×1024 array of pim.DefaultOptions.
const (
	paperIterations = 100_000
	paperRecompile  = 100
	fleetDevices    = 1_000_000
)

var fleetSigmas = []float64{0.3, 0.6}

// setupReps is how often a run repeats its set-up; setup_s is the
// median, so one cold-cache outlier does not move it.
const setupReps = 15

// batchWorkload is a closed loop with one caller: passes run back to
// back until the run's time is spent.
type batchWorkload struct {
	name    string
	kernels []string
	// hw includes the 9 +Hw strategies; without it only the 9 software
	// strategies run.
	hw bool
	// fleet runs PlanCache.Fleet on the single kernel instead of
	// pim.Sweep on each kernel.
	fleet bool
	// minPasses is the least number of passes a run makes, whatever its
	// time budget: fleet_study needs two to compare them bit for bit.
	minPasses int
}

var batchWorkloads = []*batchWorkload{
	{name: "fig17_paper", kernels: []string{"mult"}, hw: true, minPasses: 1},
	{name: "sw_suite", kernels: []string{"mult", "dot", "conv"}, minPasses: 1},
	{name: "fleet_study", kernels: []string{"mult"}, fleet: true, minPasses: 2},
}

func (w *batchWorkload) strategies() []pim.Strategy {
	var out []pim.Strategy
	for _, s := range pim.AllStrategies() {
		if w.hw || !s.Hw {
			out = append(out, s)
		}
	}
	return out
}

func (w *batchWorkload) params() map[string]any {
	p := map[string]any{
		"kernels":         w.kernels,
		"strategies":      len(w.strategies()),
		"lanes":           1024,
		"rows":            1024,
		"iterations":      paperIterations,
		"recompile_every": paperRecompile,
		"technology":      "MRAM",
		"workers":         workers(),
		"min_passes":      w.minPasses,
		"setup_reps":      setupReps,
	}
	if w.fleet {
		p["devices"] = fleetDevices
		p["sigmas"] = fleetSigmas
		p["technologies"] = len(pim.Technologies())
		delete(p, "technology")
	}
	return p
}

// workPerPass is the pass's unit count for work_per_s: strategy ×
// iterations simulated, or devices drawn for a fleet study.
func (w *batchWorkload) workPerPass() float64 {
	if w.fleet {
		return float64(len(w.strategies())*len(pim.Technologies())*len(fleetSigmas)) * fleetDevices
	}
	return float64(len(w.kernels)*len(w.strategies())) * paperIterations
}

// workers is the load size for this host: one worker per CPU.
func workers() int { return runtime.NumCPU() }

// kernel is one compiled benchmark of a workload.
type kernel struct {
	name  string
	bench *pim.Benchmark
}

// batchState is what set-up produces and every pass reuses.
type batchState struct {
	opt     pim.Options
	kernels []kernel
	cache   *pim.PlanCache
}

// compileKernel compiles one of the paper's three kernels at its §4
// parameters.
func compileKernel(name string, opt pim.Options) (*pim.Benchmark, error) {
	switch name {
	case "mult":
		return pim.NewParallelMult(opt, 32)
	case "dot":
		return pim.NewDotProduct(opt, 1024, 32)
	case "conv":
		return pim.NewConvolution(opt, 4, 3, 8)
	}
	return nil, fmt.Errorf("unknown kernel %q", name)
}

// setup compiles the kernels and, for a fleet study, warms the plan
// cache, so passes time only what a user repeats.
func (w *batchWorkload) setup(tr *tracer, parent int) (*batchState, error) {
	st := &batchState{opt: pim.DefaultOptions()}
	for _, name := range w.kernels {
		sp := tr.start("workloads.compile", parent, "setup", 0)
		b, err := compileKernel(name, st.opt)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		st.kernels = append(st.kernels, kernel{name, b})
	}
	if w.fleet {
		st.cache = pim.NewPlanCache(1)
		sp := tr.start("core.plan", parent, "setup", 0)
		st.cache.Plan(st.kernels[0].bench, st.opt)
		tr.end(sp)
	}
	return st, nil
}

// passOut is what one pass produced, held until the checks read it.
type passOut struct {
	sweeps [][]*pim.Result // per kernel, in strategy order
	points []pim.FleetPoint
}

func (w *batchWorkload) runConfig(seed int64) pim.RunConfig {
	return pim.RunConfig{Iterations: paperIterations, RecompileEvery: paperRecompile, Seed: seed, Workers: workers()}
}

func (w *batchWorkload) fleetConfig(seed int64) pim.FleetConfig {
	return pim.FleetConfig{Devices: fleetDevices, Sigmas: fleetSigmas, Seed: seed}
}

// pass is the untraced pass: the public entry points exactly as a user
// calls them.
func (w *batchWorkload) pass(st *batchState, seed int64) (passOut, error) {
	var out passOut
	rc := w.runConfig(seed)
	if w.fleet {
		points, hit, err := st.cache.Fleet(st.kernels[0].bench, st.opt, rc, w.strategies(), pim.Technologies(), w.fleetConfig(seed))
		if err != nil {
			return out, err
		}
		if !hit {
			return out, fmt.Errorf("fleet pass missed the warmed plan cache")
		}
		out.points = points
		return out, nil
	}
	for _, k := range st.kernels {
		results, err := pim.Sweep(k.bench, st.opt, rc, w.strategies(), pim.MRAM())
		if err != nil {
			return out, err
		}
		out.sweeps = append(out.sweeps, results)
	}
	return out, nil
}

// tracedPass drives the same pipeline as pass one layer at a time,
// with a span around every call. It mirrors the bodies of pim.Sweep and
// pim.Fleet, so its outputs must equal the untraced pass bit for bit.
func (w *batchWorkload) tracedPass(st *batchState, seed int64, tr *tracer, root int) (passOut, error) {
	var out passOut
	rc := w.runConfig(seed)
	req := fmt.Sprintf("pass-seed%d", seed)
	if w.fleet {
		points, err := tracedFleet(st, rc, w.strategies(), w.fleetConfig(seed), tr, root, req)
		out.points = points
		return out, err
	}
	for _, k := range st.kernels {
		results, err := tracedSweep(k, st.opt, rc, w.strategies(), pim.MRAM(), tr, root, req)
		if err != nil {
			return out, err
		}
		out.sweeps = append(out.sweeps, results)
	}
	return out, nil
}

func simConfig(plan *core.WearPlan, rc pim.RunConfig) core.SimConfig {
	return core.SimConfig{
		Rows:           plan.Rows(),
		PresetOutputs:  plan.PresetOutputs(),
		Iterations:     rc.Iterations,
		RecompileEvery: rc.RecompileEvery,
		Seed:           rc.Seed,
		Workers:        rc.Workers,
	}
}

func simLayer(s pim.Strategy) string {
	if s.Hw {
		return "core.hw"
	}
	return "core.sw"
}

func tracedSweep(k kernel, opt pim.Options, rc pim.RunConfig, strategies []pim.Strategy, tech pim.Technology, tr *tracer, parent int, req string) ([]*pim.Result, error) {
	sp := tr.start("core.plan", parent, req, 0)
	plan := core.NewWearPlan(k.bench.Trace, opt.Rows, opt.PresetOutputs)
	tr.end(sp)

	results := make([]*pim.Result, len(strategies))
	errs := make([]error, len(strategies))
	n := pool.Size(rc.Workers, len(strategies))
	inner := rc
	inner.Workers = pool.Share(rc.Workers, n)
	fe := tr.start("pool.foreach", parent, req, 0)
	pool.ForEachWorker(n, len(strategies), func(slot, i int) {
		s := strategies[i]
		ss := tr.start("strategy", fe, req, slot+1)
		defer tr.end(ss)
		cs := tr.start(simLayer(s), ss, req, 0)
		dist, err := plan.Simulate(simConfig(plan, inner), s)
		tr.end(cs)
		if err != nil {
			errs[i] = err
			return
		}
		sm := tr.start("stats.summarize", ss, req, 0)
		sum := stats.Summarize(dist.Counts)
		maxPerIter := float64(sum.Max) / float64(dist.Iterations)
		model := lifetime.Model{Endurance: tech.Endurance, StepSeconds: tech.SwitchSeconds}
		lt, err := model.Estimate(maxPerIter, plan.Stats().Steps)
		tr.end(sm)
		results[i] = &pim.Result{
			Benchmark: k.bench.Name, Strategy: s, Dist: dist,
			MaxWritesPerIteration: maxPerIter, Utilization: plan.Stats().Utilization,
			Lifetime: lt, Imbalance: sum.MaxOverMean(),
		}
		errs[i] = err
	})
	tr.end(fe)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func tracedFleet(st *batchState, rc pim.RunConfig, strategies []pim.Strategy, fc pim.FleetConfig, tr *tracer, parent int, req string) ([]pim.FleetPoint, error) {
	sp := tr.start("core.plan", parent, req, 0)
	plan, hit := st.cache.Plan(st.kernels[0].bench, st.opt)
	tr.end(sp)
	if !hit {
		return nil, fmt.Errorf("fleet pass missed the warmed plan cache")
	}
	var points []pim.FleetPoint
	for _, s := range strategies {
		ps, err := tracedFleetStrategy(plan, st.kernels[0].bench.Name, s, rc, fc, tr, parent, req)
		if err != nil {
			return nil, err
		}
		points = append(points, ps...)
	}
	return points, nil
}

// tracedFleetStrategy is one strategy of a fleet pass: simulate, group,
// then draw every technology × σ.
func tracedFleetStrategy(plan *core.WearPlan, bench string, s pim.Strategy, rc pim.RunConfig, fc pim.FleetConfig, tr *tracer, parent int, req string) ([]pim.FleetPoint, error) {
	ss := tr.start("strategy", parent, req, 0)
	defer tr.end(ss)
	cs := tr.start(simLayer(s), ss, req, 0)
	dist, err := plan.Simulate(simConfig(plan, rc), s)
	tr.end(cs)
	if err != nil {
		return nil, err
	}
	gs := tr.start("fleet.group", ss, req, 0)
	g, err := fleet.GroupCounts(dist.Counts, dist.Iterations)
	tr.end(gs)
	steps := dist.StepsPerIteration
	dist.Release()
	if err != nil {
		return nil, err
	}
	// A one-device draw builds the σ's hazard table, which the Groups
	// cache for every technology, so the full draws below time draws
	// alone.
	for _, sigma := range fc.Sigmas {
		ts := tr.start("fleet.table", ss, req, 0)
		m := fleet.Model{MedianEndurance: pim.MRAM().Endurance, Sigma: sigma}
		_, err := m.Survive(g, fleet.Params{Devices: 1, Seed: fc.Seed, Workers: rc.Workers})
		tr.end(ts)
		if err != nil {
			return nil, err
		}
	}
	var points []pim.FleetPoint
	for _, tech := range pim.Technologies() {
		for _, sigma := range fc.Sigmas {
			ds := tr.start("fleet.draw", ss, req, 0)
			m := fleet.Model{MedianEndurance: tech.Endurance, Sigma: sigma}
			res, err := m.Survive(g, fleet.Params{Devices: fc.Devices, Seed: fc.Seed, Workers: rc.Workers})
			tr.end(ds)
			if err != nil {
				return nil, err
			}
			points = append(points, pim.FleetPoint{
				Benchmark: bench, Strategy: s, Technology: tech, Sigma: sigma,
				Devices: res.Devices, Groups: res.Groups, Cells: res.Cells,
				MeanIterations: res.Mean, Quantiles: res.Quantiles,
				DeterministicIterations: res.DeterministicIterations,
				StepsPerIteration:       steps,
			})
		}
	}
	return points, nil
}

// passSums is what the checks keep of a pass after its distributions
// are released.
type passSums struct {
	sims  map[string]simSum
	fleet map[string][]float64
}

func (a passSums) equal(b passSums) bool {
	if len(a.sims) != len(b.sims) || len(a.fleet) != len(b.fleet) {
		return false
	}
	for k, v := range a.sims {
		if b.sims[k] != v {
			return false
		}
	}
	for k, v := range a.fleet {
		if !equalFloats(b.fleet[k], v) {
			return false
		}
	}
	return true
}

// check verifies a pass's outputs and releases its distributions.
func (w *batchWorkload) check(g *golden, st *batchState, seed int64, out passOut) (passSums, error) {
	sums := passSums{sims: map[string]simSum{}, fleet: map[string][]float64{}}
	defer func() {
		for _, results := range out.sweeps {
			for _, r := range results {
				if r != nil {
					r.Dist.Release()
				}
			}
		}
	}()
	if w.fleet {
		want := len(w.strategies()) * len(pim.Technologies()) * len(fleetSigmas)
		if len(out.points) != want {
			return sums, fmt.Errorf("fleet pass returned %d points, want %d", len(out.points), want)
		}
		f, err := checkFleet(g, seed, out.points)
		sums.fleet = f
		return sums, err
	}
	for i, results := range out.sweeps {
		k := st.kernels[i]
		s, err := checkSweep(g, k.name, k.bench, st.opt, seed, results)
		if err != nil {
			return sums, err
		}
		for key, v := range s {
			sums.sims[key] = v
		}
	}
	return sums, nil
}

// passSeed is the seed of pass p. Sweeps vary it, so a run covers more
// than one permutation sequence; a fleet study keeps it, so its passes
// must agree bit for bit.
func (w *batchWorkload) passSeed(seed int64, p int) int64 {
	if w.fleet {
		return seed
	}
	return seed + int64(p)
}

// run measures the workload untraced: set-up setupReps times, then
// passes until the time budget would be overrun.
func (w *batchWorkload) run(cfg *runCfg) (*outcome, error) {
	oc := &outcome{params: w.params(), values: map[string]float64{}}
	var st *batchState
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		var err error
		if st, err = w.setup(nil, -1); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}

	budget := float64(cfg.seconds)
	start := time.Now()
	var passTimes []float64
	var first *passSums
	for p := 0; ; p++ {
		if p >= w.minPasses && time.Since(start).Seconds()+median(passTimes) > budget {
			break
		}
		seed := w.passSeed(cfg.seed, p)
		oc.attempted++
		t0 := time.Now()
		out, err := w.pass(st, seed)
		dt := time.Since(t0).Seconds()
		if err == nil {
			var sums passSums
			sums, err = w.check(cfg.golden, st, seed, out)
			if err == nil && w.fleet {
				if first == nil {
					first = &sums
				} else if !first.equal(sums) {
					err = fmt.Errorf("pass %d: fleet points differ from pass 0 at the same seed", p)
				}
			}
		}
		// Collect the pass's garbage before the next one starts, so peak
		// memory is one pass's footprint and not a function of where the
		// collector's cycles happened to fall across passes.
		runtime.GC()
		if err != nil {
			oc.fail("pass %d (seed %d): %v", p, seed, err)
			if p+1 >= w.minPasses {
				break
			}
			continue
		}
		passTimes = append(passTimes, dt)
		fmt.Printf("%s pass %d seed %d: %.3f s\n", w.name, p, seed, dt)
	}
	if len(passTimes) == 0 {
		return oc, nil
	}
	total, slowest := 0.0, 0.0
	for _, t := range passTimes {
		total += t
		slowest = max(slowest, t)
	}
	oc.values["setup_s"] = median(setups)
	oc.values["op_p50_ms"] = median(passTimes) * 1000
	// A run makes too few passes for a percentile, so its tail is the
	// slowest pass.
	oc.values["op_tail_ms"] = slowest * 1000
	oc.values["work_per_s"] = w.workPerPass() * float64(len(passTimes)) / total
	oc.params["passes"] = len(passTimes)
	return oc, nil
}

// runTraced makes one untraced pass and one traced pass at the same
// seed, checks that they agree, and derives the per-layer metrics from
// the traced one.
func (w *batchWorkload) runTraced(cfg *runCfg) (*outcome, error) {
	oc := &outcome{params: w.params(), values: map[string]float64{}}
	tr := newTracer()
	setupRoot := tr.start("setup", -1, "setup", 0)
	st, err := w.setup(tr, setupRoot)
	tr.end(setupRoot)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	seed := cfg.seed
	oc.attempted++
	t0 := time.Now()
	out, err := w.pass(st, seed)
	untraced := time.Since(t0).Seconds()
	var want passSums
	if err == nil {
		want, err = w.check(cfg.golden, st, seed, out)
	}
	if err != nil {
		oc.fail("untraced pass: %v", err)
		return oc, nil
	}

	obs.Enable()
	before := obs.Capture()
	oc.attempted++
	root := tr.start("pass", -1, fmt.Sprintf("pass-seed%d", seed), 0)
	out, err = w.tracedPass(st, seed, tr, root)
	tr.end(root)
	after := obs.Capture()
	obs.Disable()
	var got passSums
	if err == nil {
		got, err = w.check(cfg.golden, st, seed, out)
	}
	if err == nil && !got.equal(want) {
		err = fmt.Errorf("traced pass checksums differ from the untraced pass")
	}
	if err != nil {
		oc.fail("traced pass: %v", err)
		return oc, nil
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	passIDs := subtree(spans, root)
	layers := layerTotals(spans, self, passIDs)
	setupLayers := layerTotals(spans, self, subtree(spans, setupRoot))
	traced := (spans[root].End - spans[root].Start).Seconds()

	v := zeroLayerValues()
	v["workloads.compile_s"] = setupLayers.get("workloads.compile").SelfS
	v["core.plan_s"] = layers.get("core.plan").SelfS
	v["core.plan_builds"] = float64(stageDelta(before, after, "core.simulate/plan").Count)
	v["core.sw_s"], v["core.sw_frac"] = layers.get("core.sw").SelfS, layers.get("core.sw").Frac
	v["core.hw_s"], v["core.hw_frac"] = layers.get("core.hw").SelfS, layers.get("core.hw").Frac
	v["stats.summarize_s"], v["stats.frac"] = layers.get("stats.summarize").SelfS, layers.get("stats.summarize").Frac
	if fe := layers.get("pool.foreach"); fe.TotalS > 0 {
		v["pool.busy_frac"] = layers.get("strategy").TotalS / (fe.TotalS * float64(workers()))
	}
	counterRatios(v, before, after)
	v["fleet.group_s"] = layers.get("fleet.group").SelfS
	v["fleet.table_s"] = layers.get("fleet.table").SelfS
	draw := layers.get("fleet.draw")
	v["fleet.draw_s"], v["fleet.draw_frac"] = draw.SelfS, draw.Frac
	v["fleet.draws_per_s"] = ratio(counterDelta(before, after, "fleet.draws"), draw.SelfS)
	v["fleet.fallbacks"] = counterDelta(before, after, "fleet.fallbacks")
	v["layers.coverage_frac"] = 1 - ratio(self[root].Seconds(), traced)
	v["bench.trace_overhead_frac"] = traced/untraced - 1
	oc.values = v
	oc.params["untraced_pass_s"] = untraced
	oc.params["traced_pass_s"] = traced

	if err := writeTraceFiles(cfg, w.name, spans, map[string]any{"pass": layers, "setup": setupLayers}, v); err != nil {
		return nil, err
	}
	return oc, nil
}

// zeroLayerValues starts every per-layer metric at 0, the value for a
// layer the workload does not exercise.
func zeroLayerValues() map[string]float64 {
	v := make(map[string]float64, len(layerMetrics))
	for _, m := range layerMetrics {
		v[m.Name] = 0
	}
	return v
}

// counterDelta is how much a counter grew between two snapshots.
func counterDelta(before, after obs.Snapshot, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}

// stageDelta is how many spans a stage timer completed between two
// snapshots, and their summed time.
func stageDelta(before, after obs.Snapshot, name string) obs.Stage {
	a, b := stageOf(after, name), stageOf(before, name)
	return obs.Stage{Name: name, Count: a.Count - b.Count, Seconds: a.Seconds - b.Seconds}
}

func stageOf(s obs.Snapshot, name string) obs.Stage {
	for _, st := range s.Stages {
		if st.Name == name {
			return st
		}
	}
	return obs.Stage{}
}

// counterRatios fills the engine's useful-outcome ratios from its own
// counters: memo hits over lookups, replay iterations saved, and arena
// reuse.
func counterRatios(v map[string]float64, before, after obs.Snapshot) {
	d := func(name string) float64 { return counterDelta(before, after, name) }
	v["core.sw.memo_ratio"] = ratio(d("core.sw.memo_hits"), d("core.sw.groups")+d("core.sw.memo_hits"))
	v["core.hw.memo_ratio"] = ratio(d("core.hw.memo_hits"), d("core.hw.replays")+d("core.hw.memo_hits"))
	v["core.hw.saved_frac"] = ratio(d("core.hw.replay_iters_saved"), d("core.hw.replay_iters")+d("core.hw.replay_iters_saved"))
	v["core.arena_hit_ratio"] = ratio(d("core.arena_hits"), d("core.arena_hits")+d("core.arena_misses"))
}

// writeTraceFiles writes the run's spans as trace_<workload>.json and
// its layer breakdown as layers_<workload>.json.
func writeTraceFiles(cfg *runCfg, name string, spans []span, layers map[string]any, values map[string]float64) error {
	if err := writeChromeTrace(filepath.Join(cfg.out, "trace_"+name+".json"), spans); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return writeJSON(filepath.Join(cfg.out, "layers_"+name+".json"), map[string]any{
		"workload": name, "seed": cfg.seed, "layers": layers, "metrics": values,
	})
}
