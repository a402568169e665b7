package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimendure/internal/obs"
	"pimendure/internal/serve"
	"pimendure/pim"
)

// serve_mix sends the requests of cmd/loadgen's two storms, the only
// serving traffic the repository records: its default sweep storm
// (EXPERIMENTS.md, 2000 requests) and its -fleet storm (40 requests),
// both with loadgen's default flags. There is no log of real users'
// requests, so this is the acceptance storm's shape, not a measured user
// mix.
var stormRequest = serve.Request{
	Benchmark: "mult", Bits: 4, Lanes: 16, Rows: 256,
	Iterations: 60, RecompileEvery: 20, Strategies: []string{"StxSt"},
}

const (
	// stormDistinct is loadgen's -distinct: request i has job seed i % 32,
	// so identical requests exist and coalesce when in flight together.
	stormDistinct     = 32
	stormFleetDevices = 20_000
	stormFleetSigma   = 0.3
	// fleetEvery makes one request in 51 a fleet request, the ratio of
	// the two recorded storms' sizes (2000 sweep to 40 fleet requests).
	fleetEvery = 51
)

// serve_mix calibration, measured once on a 2-CPU host with -calibrate
// and frozen here so every run offers the same load: the closed-loop
// capacity with one caller per CPU, the three open-loop rates at
// 0.3/0.6/0.9 of it rounded to 5 req/s, and a latency limit of about 4×
// the low phase's tail. They are never adjusted at run time.
const (
	serveCapacityRPS    = 1050
	serveLatencyLimitMS = 30
)

var serveRates = []float64{315, 630, 945}

// Each open phase gets a share of the run's seconds, and the closed-loop
// phase that measures capacity gets the rest. The end-to-end latencies
// come from the middle phase, at 0.6 of capacity.
var phaseShares = []float64{0.2, 0.35, 0.15}

const (
	closedShare = 0.2
	// warmShare of the run's seconds is an unmeasured warm-up at the low
	// rate before the phases, while the server's buffers and the plan's
	// arenas fill.
	warmShare = 0.1
	// pollInterval is how often a client polls an outstanding job.
	pollInterval = 2 * time.Millisecond
	// drain is how long jobs may still finish after the last open phase;
	// the client stops waiting for a job then.
	drain = 5 * time.Second
	// checkedJobs is how many served jobs are recomputed directly.
	checkedJobs = 32
	// serveSetupReps is how often a run repeats its set-up; setup_s is
	// the median.
	serveSetupReps = 5
)

// plannedReq is one request of the generated load.
type plannedReq struct {
	At   time.Duration // send time after its phase starts
	Kind string        // "sweep" or "fleet"
	Seed int64         // the job's seed
}

// deck returns the n requests of one phase in the order the run's seed
// shuffles them. Request k is loadgen's request k: job seed k % 32, and a
// fleet request every fleetEvery-th. Every run of a phase therefore
// serves the same multiset of requests; only their order and arrival
// times depend on the run's seed.
func deck(seed int64, phase, n int) []plannedReq {
	out := make([]plannedReq, n)
	for k := range out {
		out[k] = plannedReq{Kind: "sweep", Seed: int64(k % stormDistinct)}
		if k%fleetEvery == fleetEvery-1 {
			out[k].Kind = "fleet"
		}
	}
	rng := rand.New(rand.NewSource(seed*1009 + int64(phase)))
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// arrivals is the open-loop schedule of one phase: rate×dur requests at
// arrival times uniform over the phase, which is a Poisson process
// conditioned on its count. It is a pure function of its arguments.
func arrivals(seed int64, phase int, rate float64, dur time.Duration) []plannedReq {
	out := deck(seed, phase, int(math.Round(rate*dur.Seconds())))
	rng := rand.New(rand.NewSource(seed*1009 + int64(phase) + 7))
	at := make([]float64, len(out))
	for i := range at {
		at[i] = rng.Float64() * float64(dur)
	}
	sort.Float64s(at)
	for i := range out {
		out[i].At = time.Duration(at[i])
	}
	return out
}

func (p plannedReq) request() serve.Request {
	r := stormRequest
	r.Seed = p.Seed
	if p.Kind == "fleet" {
		r.Devices = stormFleetDevices
		r.Sigmas = []float64{stormFleetSigma}
	}
	return r
}

// client is the load's only HTTP client, holding at most one connection
// per CPU to the server.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: workers(), MaxIdleConnsPerHost: workers()}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// jobStatus is the part of GET /jobs/<id> the benchmark reads.
type jobStatus struct {
	State     string           `json:"state"`
	QueueMS   int64            `json:"queue_ms"`
	ComputeMS int64            `json:"compute_ms"`
	Error     string           `json:"error"`
	Result    *serve.JobResult `json:"result"`
}

// jobOutcome is one request's fate as the client saw it.
type jobOutcome struct {
	req       plannedReq
	sched     time.Time // when the request was due to be sent
	status    int       // HTTP status of the submit; 0 when it never answered
	coalesced bool
	id        string
	state     string // terminal state, or "" when the client gave up
	gaveUp    bool   // the job was still running at the deadline
	err       string
	submit    time.Duration
	latency   time.Duration // from sched to the poll that saw a terminal state
	done      time.Time
	polls     int
	final     jobStatus // the poll that saw the terminal state
}

func (o *jobOutcome) ok() bool { return o.state == "done" }

// unserved reports a request the server shed with a 429 or had not
// finished when the client stopped waiting. Both depend on the load, not
// on the code being right: they count in the latency tail and in
// serve.shed_frac and serve.unfinished_frac, not as failures.
func (o *jobOutcome) unserved() bool {
	return o.status == http.StatusTooManyRequests || o.gaveUp
}

// do submits one request and polls it until it ends or the deadline
// passes. When tr is set, it records a span per submit and poll.
func (c *client) do(p plannedReq, sched, deadline time.Time, tr *tracer) jobOutcome {
	o := jobOutcome{req: p, sched: sched}
	root := tr.start("serve.job", -1, "", 0)
	defer tr.end(root)
	body, err := json.Marshal(p.request())
	if err != nil {
		o.err = err.Error()
		return o
	}
	t0 := time.Now()
	sp := tr.start("serve.submit", root, "", 0)
	resp, err := c.http.Post(c.base+"/"+p.Kind, "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		o.err = err.Error()
		return o
	}
	var acc struct {
		Job       string `json:"job"`
		Coalesced bool   `json:"coalesced"`
		Error     string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	tr.end(sp)
	o.submit = time.Since(t0)
	o.status = resp.StatusCode
	if err != nil || resp.StatusCode != http.StatusAccepted {
		o.err = fmt.Sprintf("submit: HTTP %d %s %v", resp.StatusCode, acc.Error, err)
		return o
	}
	o.id, o.coalesced = acc.Job, acc.Coalesced
	tr.setReq(o.id, root, sp)
	// The first poll waits a random part of the interval. With ticks in
	// step with the submit, latencies fall into 2 ms steps, and a median
	// jumps from one step to the next between runs.
	wait := time.Duration(rand.Int63n(int64(pollInterval)))
	for time.Now().Before(deadline) {
		time.Sleep(wait)
		wait = pollInterval
		ps := tr.start("serve.poll", root, o.id, 0)
		st, err := c.poll(o.id)
		tr.end(ps)
		o.polls++
		if err != nil {
			o.err = err.Error()
			return o
		}
		switch st.State {
		case "done", "failed", "canceled":
			o.done = time.Now()
			o.latency = o.done.Sub(sched)
			o.state, o.err, o.final = st.State, st.Error, st
			return o
		}
	}
	o.gaveUp = true
	o.err = "not done before the deadline"
	return o
}

func (c *client) poll(id string) (jobStatus, error) {
	var st jobStatus
	resp, err := c.http.Get(c.base + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("poll %s: HTTP %d %s", id, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// serveState is a running server with its client and the harness's own
// compiled copy of the storm's kernel, for the correctness checks.
type serveState struct {
	srv   *serve.Server
	ts    *httptest.Server
	c     *client
	bench *pim.Benchmark
	opt   pim.Options
}

func (s *serveState) close() {
	s.c.http.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// serveSetup starts an in-process server on a loopback listener and
// sends one sweep per distinct job seed, so the plan cache starts warm.
func serveSetup(tr *tracer, parent int) (*serveState, error) {
	st := &serveState{opt: pim.DefaultOptions()}
	st.opt.Lanes, st.opt.Rows = stormRequest.Lanes, stormRequest.Rows
	sp := tr.start("workloads.compile", parent, "setup", 0)
	b, err := pim.NewParallelMult(st.opt, stormRequest.Bits)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compile the storm's kernel: %w", err)
	}
	st.bench = b
	st.srv = serve.New(serve.Config{Workers: workers()})
	st.ts = httptest.NewServer(st.srv)
	st.c = newClient(st.ts.URL)

	sp = tr.start("serve.prefill", parent, "setup", 0)
	defer tr.end(sp)
	outs := make([]jobOutcome, stormDistinct)
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = st.c.do(plannedReq{Kind: "sweep", Seed: int64(i)}, time.Now(), deadline, nil)
		}(i)
	}
	wg.Wait()
	for _, o := range outs {
		if !o.ok() {
			st.close()
			return nil, fmt.Errorf("prefill seed %d: %s %s", o.req.Seed, o.state, o.err)
		}
	}
	return st, nil
}

// phaseResult is one open-loop phase as the client saw it.
type phaseResult struct {
	rate     float64
	end      time.Time // when the next phase started
	deadline time.Time // when the client stopped waiting for jobs
	outcomes []jobOutcome
	late     []float64 // ms each send was behind schedule
}

// latenciesMS returns the phase's job latencies, sorted. A request that
// was refused, failed or never finished counts as lasting from its send
// time to the deadline, when the client stopped waiting for it: far
// beyond any latency limit, yet finite, so every percentile can be
// written to a result file.
func (ph *phaseResult) latenciesMS() []float64 {
	out := make([]float64, len(ph.outcomes))
	for i, o := range ph.outcomes {
		d := ph.deadline.Sub(o.sched)
		if o.ok() {
			d = o.latency
		}
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// count returns how many of the phase's requests match.
func (ph *phaseResult) count(match func(*jobOutcome) bool) int {
	n := 0
	for i := range ph.outcomes {
		if match(&ph.outcomes[i]) {
			n++
		}
	}
	return n
}

func notOK(o *jobOutcome) bool { return !o.ok() }

// tailMS is the phase's latency tail: the highest percentile with at
// least ten samples beyond it, or the slowest request of a phase too
// short to have one.
func (ph *phaseResult) tailMS() (level, value float64) {
	lat := ph.latenciesMS()
	level, value, ok := tail(lat)
	if !ok && len(lat) > 0 {
		return 1, lat[len(lat)-1]
	}
	return level, value
}

// meetsLimit reports whether the phase's rate was sustained: its tail
// within the latency limit, at most 1% of requests not done, and at least
// 95% of its arrivals finished before the next phase began.
func (ph *phaseResult) meetsLimit(limitMS float64) bool {
	n := len(ph.outcomes)
	if n == 0 {
		return false
	}
	if _, t := ph.tailMS(); t > limitMS {
		return false
	}
	if float64(ph.count(notOK)) > 0.01*float64(n) {
		return false
	}
	inTime := ph.count(func(o *jobOutcome) bool { return o.ok() && !o.done.After(ph.end) })
	return float64(inTime) >= 0.95*float64(n)
}

// runOpen sends the phases' schedules back to back from one generator
// and waits until every job has ended or the drain has passed.
func runOpen(c *client, seed int64, rates []float64, durs []time.Duration, phases []int, tr *tracer) []*phaseResult {
	out := make([]*phaseResult, len(rates))
	var wg sync.WaitGroup
	start := time.Now()
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	deadline := start.Add(total + drain)
	for i, rate := range rates {
		ph := &phaseResult{rate: rate, end: start.Add(durs[i]), deadline: deadline}
		reqs := arrivals(seed, phases[i], rate, durs[i])
		ph.outcomes = make([]jobOutcome, len(reqs))
		ph.late = make([]float64, len(reqs))
		for j, p := range reqs {
			sched := start.Add(p.At)
			time.Sleep(time.Until(sched))
			ph.late[j] = float64(time.Since(sched)) / float64(time.Millisecond)
			wg.Add(1)
			go func(j int, p plannedReq) {
				defer wg.Done()
				ph.outcomes[j] = c.do(p, sched, deadline, tr)
			}(j, p)
		}
		out[i] = ph
		start = ph.end
		time.Sleep(time.Until(start))
	}
	wg.Wait()
	return out
}

// runClosed works through reqs with one caller per CPU, each sending
// the next request when its previous one has ended, and returns the
// completed requests per second. A fixed list, rather than a fixed time,
// makes every run do the same work.
func runClosed(c *client, reqs []plannedReq) (float64, []jobOutcome) {
	outs := make([]jobOutcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Minute)
	for k := 0; k < workers(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				outs[i] = c.do(reqs[i], time.Now(), deadline, nil)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	done := 0
	for _, o := range outs {
		if o.ok() {
			done++
		}
	}
	return float64(done) / elapsed, outs
}

// closedDeck is the closed-loop phase's requests: as many as the
// calibrated capacity completes in the phase's share of the run.
func closedDeck(seed int64, seconds int) []plannedReq {
	return deck(seed, 3, int(math.Round(serveCapacityRPS*closedShare*float64(seconds))))
}

func phaseDurations(seconds int) []time.Duration {
	out := make([]time.Duration, len(phaseShares))
	for i, s := range phaseShares {
		out[i] = time.Duration(s * float64(seconds) * float64(time.Second))
	}
	return out
}

func serveParams(seconds int) map[string]any {
	return map[string]any{
		"request":          stormRequest,
		"distinct_seeds":   stormDistinct,
		"fleet_every":      fleetEvery,
		"fleet_devices":    stormFleetDevices,
		"fleet_sigma":      stormFleetSigma,
		"capacity_rps":     serveCapacityRPS,
		"rates_rps":        serveRates,
		"latency_limit_ms": serveLatencyLimitMS,
		"warmup_seconds":   warmShare * float64(seconds),
		"phase_seconds":    phaseDurations(seconds),
		"closed_requests":  len(closedDeck(0, seconds)),
		"workers":          workers(),
		"max_conns":        workers(),
		"poll_ms":          pollInterval.Milliseconds(),
		"setup_reps":       serveSetupReps,
		"checked_jobs":     checkedJobs,
	}
}

// serveRun is one untraced measurement: the three open phases, then the
// closed-loop phase.
type serveRun struct {
	warmup   *phaseResult
	phases   []*phaseResult
	capacity float64
	closed   []jobOutcome
}

func measureServe(st *serveState, cfg *runCfg) serveRun {
	durs := phaseDurations(cfg.seconds)
	var r serveRun
	warm := time.Duration(warmShare * float64(cfg.seconds) * float64(time.Second))
	r.warmup = runOpen(st.c, cfg.seed, serveRates[:1], []time.Duration{warm}, []int{4}, nil)[0]
	r.phases = runOpen(st.c, cfg.seed, serveRates, durs, []int{0, 1, 2}, nil)
	r.capacity, r.closed = runClosed(st.c, closedDeck(cfg.seed, cfg.seconds))
	return r
}

// account counts every request of a run as attempted and every one that
// went wrong as failed, then runs the correctness checks. A shed or
// unfinished request is not wrong: it is counted in the run's
// parameters and in the latency tail instead.
func (r *serveRun) account(oc *outcome, st *serveState, seed int64) {
	var all []jobOutcome
	for _, ph := range append([]*phaseResult{r.warmup}, r.phases...) {
		if ph != nil {
			all = append(all, ph.outcomes...)
		}
	}
	all = append(all, r.closed...)
	oc.attempted += len(all)
	unserved := 0
	for _, o := range all {
		switch {
		case o.ok():
		case o.unserved():
			unserved++
		default:
			oc.fail("%s seed %d: state %q: %s", o.req.Kind, o.req.Seed, o.state, o.err)
		}
	}
	oc.params["unserved"] = unserved
	for _, err := range checkServed(st, all, seed) {
		oc.fail("%v", err)
	}
}

func runServe(cfg *runCfg) (*outcome, error) {
	oc := &outcome{params: serveParams(cfg.seconds), values: map[string]float64{}}
	setups := make([]float64, serveSetupReps)
	var st *serveState
	for i := range setups {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = serveSetup(nil, -1); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer st.close()

	r := measureServe(st, cfg)
	r.account(oc, st, cfg.seed)
	mid := r.phases[1]
	lat := mid.latenciesMS()
	oc.values["setup_s"] = median(setups)
	oc.values["op_p50_ms"] = nearestRank(lat, 0.5)
	// The gated tail is p90. The phase's p99 (serve.job_ms_tail) is set
	// by the few longest stalls of the host, and moved by 25–32% between
	// runs of the same code on a 2-CPU virtual machine; p90 moved by 6%.
	oc.values["op_tail_ms"] = nearestRank(lat, 0.9)
	oc.values["work_per_s"] = r.capacity
	r.report(oc.params)
	fmt.Printf("serve_mix middle phase: %d jobs at %.0f req/s\n", len(mid.outcomes), mid.rate)
	return oc, nil
}

// report records each phase's numbers in the run's parameters.
func (r *serveRun) report(params map[string]any) {
	var rows []map[string]any
	for _, ph := range r.phases {
		level, t := ph.tailMS()
		lat := ph.latenciesMS()
		rows = append(rows, map[string]any{
			"rate_rps": ph.rate, "sent": len(ph.outcomes), "not_done": ph.count(notOK),
			"p50_ms": nearestRank(lat, 0.5), "p90_ms": nearestRank(lat, 0.9),
			"tail_ms": t, "tail_pct": 100 * level,
			"meets_limit": ph.meetsLimit(serveLatencyLimitMS),
		})
	}
	params["phases"] = rows
	params["max_rate_rps"] = r.maxRate()
}

func (r *serveRun) maxRate() float64 {
	best := 0.0
	for _, ph := range r.phases {
		if ph.meetsLimit(serveLatencyLimitMS) && ph.rate > best {
			best = ph.rate
		}
	}
	return best
}

// checkServed verifies served results. Every finished sweep wrote
// exactly the trace's cell writes per iteration; and for checkedJobs
// jobs chosen by the seed, the served checksums (or fleet quantiles)
// equal a direct computation through a separate plan cache.
func checkServed(st *serveState, outs []jobOutcome, seed int64) []error {
	var errs []error
	byID := map[string]jobOutcome{}
	var ids []string
	want := uint64(st.bench.Trace.CellWrites(st.opt.PresetOutputs)) * uint64(stormRequest.Iterations)
	for _, o := range outs {
		if !o.ok() || o.final.Result == nil {
			continue
		}
		if _, seen := byID[o.id]; !seen {
			ids = append(ids, o.id)
		}
		byID[o.id] = o
		res := o.final.Result
		if o.req.Kind == "fleet" {
			if len(res.Fleet) != 1 {
				errs = append(errs, fmt.Errorf("job %s: %d fleet rows for 1 strategy", o.id, len(res.Fleet)))
			}
			continue
		}
		if len(res.Strategies) != 1 {
			errs = append(errs, fmt.Errorf("job %s: %d results for 1 strategy", o.id, len(res.Strategies)))
			continue
		}
		if s := res.Strategies[0]; s.TotalWrites != want {
			errs = append(errs, fmt.Errorf("job %s %s: total writes %d, want %d", o.id, s.Strategy, s.TotalWrites, want))
		}
	}
	sort.Strings(ids)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if len(ids) > checkedJobs {
		ids = ids[:checkedJobs]
	}
	cache := pim.NewPlanCache(1)
	for _, id := range ids {
		if err := checkDirect(st, cache, byID[id]); err != nil {
			errs = append(errs, fmt.Errorf("job %s: %w", id, err))
		}
	}
	return errs
}

// checkDirect recomputes one served job outside the server.
func checkDirect(st *serveState, cache *pim.PlanCache, o jobOutcome) error {
	p := o.req
	rc := pim.RunConfig{Iterations: stormRequest.Iterations, RecompileEvery: stormRequest.RecompileEvery, Seed: p.Seed, Workers: 1}
	strategies := []pim.Strategy{pim.StaticStrategy}
	res := o.final.Result
	if p.Kind == "fleet" {
		points, _, err := cache.Fleet(st.bench, st.opt, rc, strategies, []pim.Technology{pim.MRAM()},
			pim.FleetConfig{Devices: stormFleetDevices, Sigmas: []float64{stormFleetSigma}, Seed: p.Seed})
		if err != nil {
			return err
		}
		if _, err := checkFleet(nil, p.Seed, points); err != nil {
			return err
		}
		for i, pt := range points {
			row := res.Fleet[i]
			got := []float64{row.B1Iterations, row.B10Iterations, row.B50Iterations}
			if row.Strategy != pt.Strategy.Name() || !equalFloats(got, pt.Quantiles) {
				return fmt.Errorf("fleet %s: served %v, direct %s %v", row.Strategy, got, pt.Strategy.Name(), pt.Quantiles)
			}
		}
		return nil
	}
	results, _, err := cache.Sweep(st.bench, st.opt, rc, strategies, pim.MRAM())
	if err != nil {
		return err
	}
	defer func() {
		for _, r := range results {
			r.Dist.Release()
		}
	}()
	for i, r := range results {
		row := res.Strategies[i]
		if fnv := distFNV(r.Dist.Counts); row.Strategy != r.Strategy.Name() || row.DistFNV != fnv {
			return fmt.Errorf("%s: served dist_fnv %s, direct %s %s", row.Strategy, row.DistFNV, r.Strategy.Name(), fnv)
		}
	}
	return nil
}

// runServeTraced makes the untraced run, for the client-side layer
// numbers and as the reference for the tracing overhead, then repeats
// the middle phase with the engine's counters on and a span around
// every submit and poll.
func runServeTraced(cfg *runCfg) (*outcome, error) {
	oc := &outcome{params: serveParams(cfg.seconds), values: map[string]float64{}}
	tr := newTracer()
	setupRoot := tr.start("setup", -1, "setup", 0)
	st, err := serveSetup(tr, setupRoot)
	tr.end(setupRoot)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer st.close()

	r := measureServe(st, cfg)
	r.account(oc, st, cfg.seed)
	r.report(oc.params)
	mid := r.phases[1]

	obs.Enable()
	before := obs.Capture()
	traced := runOpen(st.c, cfg.seed, serveRates[1:2], phaseDurations(cfg.seconds)[1:2], []int{1}, tr)[0]
	after := obs.Capture()
	obs.Disable()
	tracedRun := serveRun{phases: []*phaseResult{traced}}
	tracedRun.account(oc, st, cfg.seed)

	v := zeroLayerValues()
	spans := tr.snapshot()
	self := selfTimes(spans)
	setupLayers := layerTotals(spans, self, subtree(spans, setupRoot))
	v["workloads.compile_s"] = setupLayers.get("workloads.compile").SelfS
	clientLayers(v, mid)
	v["serve.max_rate_rps"] = r.maxRate()

	var computeS float64
	for _, o := range traced.outcomes {
		computeS += float64(o.final.ComputeMS) / 1000
	}
	plan := stageDelta(before, after, "core.simulate/plan")
	sw := stageDelta(before, after, "core.simulate/sw-accumulate")
	hw := stageDelta(before, after, "core.simulate/hw-replay")
	v["core.plan_s"], v["core.plan_builds"] = plan.Seconds, float64(plan.Count)
	v["core.sw_s"], v["core.sw_frac"] = sw.Seconds, ratio(sw.Seconds, computeS)
	v["core.hw_s"], v["core.hw_frac"] = hw.Seconds, ratio(hw.Seconds, computeS)
	counterRatios(v, before, after)
	// Jobs draw on one worker each, so the summed per-batch draw times
	// of the engine's histogram are the draws' wall time.
	v["fleet.draws_per_s"] = ratio(counterDelta(before, after, "fleet.draws"), histSum(after, "fleet.draw")-histSum(before, "fleet.draw"))
	v["fleet.fallbacks"] = counterDelta(before, after, "fleet.fallbacks")
	v["bench.trace_overhead_frac"] = ratio(nearestRank(traced.latenciesMS(), 0.5), nearestRank(mid.latenciesMS(), 0.5)) - 1
	oc.values = v

	jobLayers := layerTotals(spans, self, spanIDs(spans, "serve.job", "serve.submit", "serve.poll"))
	return oc, writeTraceFiles(cfg, "serve_mix", spans, map[string]any{"setup": setupLayers, "jobs": jobLayers}, v)
}

// clientLayers fills the serving layer's numbers as the client measured
// them in one phase.
func clientLayers(v map[string]float64, ph *phaseResult) {
	var submit, queue, compute []float64
	var queueMS, serverMS, latSum float64
	ids := map[string]bool{}
	hits, jobs, coalesced, polls := 0, 0, 0, 0
	for _, o := range ph.outcomes {
		if o.coalesced {
			coalesced++
		}
		if o.status == http.StatusAccepted {
			submit = append(submit, float64(o.submit)/float64(time.Millisecond))
		}
		polls += o.polls
		if !o.ok() {
			continue
		}
		if ids[o.id] {
			continue
		}
		ids[o.id] = true
		jobs++
		latSum += float64(o.latency) / float64(time.Millisecond)
		queue = append(queue, float64(o.final.QueueMS))
		compute = append(compute, float64(o.final.ComputeMS))
		queueMS += float64(o.final.QueueMS)
		serverMS += float64(o.final.QueueMS + o.final.ComputeMS)
		if o.final.Result != nil && o.final.Result.CacheHit {
			hits++
		}
	}
	n := float64(len(ph.outcomes))
	level, t := ph.tailMS()
	v["serve.jobs"] = n
	v["serve.job_ms_tail"], v["serve.tail_pct"] = t, 100*level
	sort.Float64s(submit)
	sort.Float64s(queue)
	sort.Float64s(compute)
	v["serve.submit_ms_p50"] = nearestRank(submit, 0.5)
	_, v["serve.submit_ms_tail"], _ = tail(submit)
	v["serve.queue_ms_p50"] = nearestRank(queue, 0.5)
	_, v["serve.queue_ms_tail"], _ = tail(queue)
	v["serve.compute_ms_p50"] = nearestRank(compute, 0.5)
	_, v["serve.compute_ms_tail"], _ = tail(compute)
	v["serve.queue_frac"] = ratio(queueMS, serverMS)
	v["serve.cache_hit_ratio"] = ratio(float64(hits), float64(jobs))
	v["serve.coalesced_frac"] = ratio(float64(coalesced), n)
	v["serve.shed_frac"] = ratio(float64(ph.count(func(o *jobOutcome) bool { return o.status == http.StatusTooManyRequests })), n)
	v["serve.unfinished_frac"] = ratio(float64(ph.count(func(o *jobOutcome) bool { return o.gaveUp })), n)
	v["serve.polls_per_job"] = ratio(float64(polls), float64(jobs))
	v["layers.coverage_frac"] = ratio(serverMS, latSum)
	_, v["bench.late_ms_tail"], _ = tail(sortedCopy(ph.late))
}

// histSum is a histogram's exact sum in a snapshot, 0 when it is empty.
func histSum(s obs.Snapshot, name string) float64 {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Sum
		}
	}
	return 0
}

// spanIDs returns the ids of every span with one of the given names.
func spanIDs(spans []span, names ...string) []int {
	var ids []int
	for i, s := range spans {
		for _, n := range names {
			if s.Name == n {
				ids = append(ids, i)
				break
			}
		}
	}
	return ids
}

// calibrateMain measures what serve_mix freezes: the closed-loop
// capacity, the three rates derived from it, and the latency limit from
// the low phase's tail. Paste its output into the constants above.
func calibrateMain(cfg *runCfg) int {
	st, err := serveSetup(nil, -1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer st.close()
	capacity, _ := runClosed(st.c, deck(cfg.seed, 3, 100*cfg.seconds))
	round5 := func(x float64) float64 { return math.Max(5, 5*math.Round(x/5)) }
	rates := []float64{round5(0.3 * capacity), round5(0.6 * capacity), round5(0.9 * capacity)}
	low := runOpen(st.c, cfg.seed, rates[:1], []time.Duration{time.Duration(cfg.seconds) * time.Second}, []int{0}, nil)[0]
	level, t := low.tailMS()
	limit := 10 * math.Ceil(4*t/10)
	fmt.Printf("capacity %.1f req/s with %d callers\n", capacity, workers())
	fmt.Printf("rates %v req/s; low phase p%g %.2f ms over %d jobs\n", rates, 100*level, t, len(low.outcomes))
	fmt.Printf("serveCapacityRPS = %.0f\nserveLatencyLimitMS = %.0f\nserveRates = %v\n", capacity, limit, rates)
	return 0
}
