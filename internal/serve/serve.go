// Package serve is the endurance-as-a-service layer: an HTTP job server
// that turns pim.Sweep/pim.Run into POST /sweep and POST /run requests.
//
// Every request is admission-controlled through a bounded pool.Queue —
// when the queue is full the server sheds the request with a clean
// 429 + Retry-After instead of queueing unboundedly or severing the
// connection. Identical in-flight requests (same canonical form) are
// coalesced onto one execution, and the expensive per-benchmark
// core.WearPlan is reused across jobs through a pim.PlanCache, so a
// fleet of clients sweeping the same workloads costs one plan build.
// Accepted requests return a job id that clients poll on GET /jobs/<id>
// for per-epoch wear progress (from the job's scoped obs.Series) and,
// on completion, the full per-strategy results.
//
// The package deliberately does not own an http.Server: a Server is an
// http.Handler, and cmd/pimserve sets it as the obs.Run's Handler, so
// /sweep, /run, /fleet and /jobs share the process's -serve listener
// with /metrics, /series, /wear.png and /debug/pprof/.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pimendure/internal/obs"
	"pimendure/internal/pool"
	"pimendure/pim"
)

// Serving counters and gauges, exported on /metrics. cache_hits counts
// jobs whose WearPlan came from the PlanCache; jobs_panicked counts jobs
// that failed by panicking (also counted in jobs_failed); queue_depth is
// the high-water mark of jobs admitted but not yet picked up by a worker.
var (
	obsJobsAccepted  = obs.GetCounter("serve.jobs_accepted")
	obsJobsCompleted = obs.GetCounter("serve.jobs_completed")
	obsJobsFailed    = obs.GetCounter("serve.jobs_failed")
	obsJobsPanicked  = obs.GetCounter("serve.jobs_panicked")
	obsJobsShed      = obs.GetCounter("serve.jobs_shed")
	obsJobsCoalesced = obs.GetCounter("serve.jobs_coalesced")
	obsCacheHits     = obs.GetCounter("serve.cache_hits")
	obsCacheMisses   = obs.GetCounter("serve.cache_misses")
	obsQueueDepth    = obs.GetGauge("serve.queue_depth")
)

// Latency histograms, exported on /metrics as serve_job_seconds,
// serve_queue_wait_seconds and serve_compute_seconds: the full
// admission-to-completion distribution and its queue-wait vs compute
// split, so a load storm's p99 is readable without client-side timing.
var (
	obsJobSeconds       = obs.GetDurationHistogram("serve.job")
	obsQueueWaitSeconds = obs.GetDurationHistogram("serve.queue_wait")
	obsComputeSeconds   = obs.GetDurationHistogram("serve.compute")
)

// Config sizes the serving layer. The zero value selects sensible
// defaults; see each field.
type Config struct {
	// Workers is the number of jobs executed concurrently (default
	// GOMAXPROCS). Each job additionally fans its strategies out over
	// the engine pool, budgeted so the total stays near GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default 64).
	// Beyond it, requests are shed with 429 + Retry-After.
	QueueDepth int
	// Cache is the WearPlan cache jobs build their plans through (nil
	// selects pim.NewPlanCache(32); pim.NewPlanCache(0) disables
	// caching). Embedders that already hold a cache share plans — and
	// therefore per-plan scratch arenas — between their own direct
	// simulations and the jobs this server runs.
	Cache *pim.PlanCache
	// History bounds how many finished jobs stay pollable before the
	// oldest are forgotten (default 16384).
	History int
	// RetryAfter is the hint returned with a 429 (default 1s).
	RetryAfter time.Duration
	// MaxLanes, MaxRows and MaxIterations cap what a single request may
	// ask for (defaults 4096, 4096 and 10 000 000) — admission control
	// against accidental or hostile million-lane sweeps.
	MaxLanes      int
	MaxRows       int
	MaxIterations int
	// MaxDevices caps the fleet population of one POST /fleet sweep
	// point (default 10 000 000 — about two seconds of draws per point
	// on one core).
	MaxDevices int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Cache == nil {
		c.Cache = pim.NewPlanCache(32)
	}
	if c.History <= 0 {
		c.History = 16384
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxLanes <= 0 {
		c.MaxLanes = 4096
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 4096
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 10_000_000
	}
	if c.MaxDevices <= 0 {
		c.MaxDevices = 10_000_000
	}
	return c
}

// Server is the job server. Create with New, serve it as an
// http.Handler, stop with Close.
type Server struct {
	cfg   Config
	queue *pool.Queue[*job]

	mu       sync.Mutex
	jobs     map[string]*job // by id, running and finished
	inflight map[string]*job // by request fingerprint, for coalescing
	finished []string        // completion order, for history eviction
	nextID   int
	closed   bool

	// testBeforeRun, when non-nil, runs as a running job's first step,
	// under its panic guard — the test hook that holds jobs in the
	// running state deterministically, or makes one panic. testFinished,
	// when non-nil, runs in finish right after a job's terminal state is
	// published, holding the rest of finish back. Set before the first
	// request; never touched in production.
	testBeforeRun func(*job)
	testFinished  func(*job)
}

// job is one accepted request moving through queued → running →
// done/failed (or canceled, when Close drains it before a worker runs
// it).
type job struct {
	id  string
	fp  string
	req Request
	// kind is the endpoint the job came from: "run", "sweep" or
	// "fleet".
	kind string
	// trace is the obs trace id assigned at admission; every span the
	// job causes (queue pickup, engine stages, bank fan-out) is stamped
	// with it, and GET /jobs/<id>/trace filters the event ring by it.
	trace string

	mu        sync.Mutex
	state     string
	coalesced int
	err       string
	result    *JobResult
	enqueued  time.Time
	started   time.Time
	finished  time.Time

	done chan struct{}
}

// breakdownLocked splits the job's lifecycle into queue-wait (admission
// to worker pickup), compute (pickup to finish) and total. Call with
// j.mu held, after the relevant timestamps are set; a job canceled
// before running reports zero queue-wait and compute.
func (j *job) breakdownLocked() (queueWait, compute, total time.Duration) {
	if !j.finished.IsZero() && !j.enqueued.IsZero() {
		total = j.finished.Sub(j.enqueued)
	}
	if j.started.IsZero() {
		return 0, 0, total
	}
	return j.started.Sub(j.enqueued), j.finished.Sub(j.started), total
}

// New creates a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		jobs:     map[string]*job{},
		inflight: map[string]*job{},
	}
	s.queue = pool.NewQueue(cfg.Workers, cfg.QueueDepth, s.exec)
	return s
}

// Close stops admission, waits for running jobs to finish, and marks
// jobs still queued as canceled. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	for _, j := range s.queue.Close() {
		s.finish(j, nil, fmt.Errorf("server shut down before the job ran"), "canceled")
	}
}

// ServeHTTP routes POST /sweep, POST /run, POST /fleet, GET /jobs and
// GET /jobs/<id>.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/sweep":
		s.submit(w, r, "sweep")
	case r.URL.Path == "/run":
		s.submit(w, r, "run")
	case r.URL.Path == "/fleet":
		s.submit(w, r, "fleet")
	case r.URL.Path == "/jobs":
		s.listJobs(w, r)
	case strings.HasPrefix(r.URL.Path, "/jobs/"):
		s.getJob(w, r, strings.TrimPrefix(r.URL.Path, "/jobs/"))
	default:
		http.NotFound(w, r)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// submit is the admission path: parse, validate, coalesce, enqueue-or-
// shed. Everything here is cheap — compilation and simulation happen on
// a queue worker.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	req, err := decodeRequest(w, r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req = req.normalized()
	if err := req.validate(s.cfg, kind); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp := req.fingerprint(kind)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if j, ok := s.inflight[fp]; ok {
		j.mu.Lock()
		j.coalesced++
		j.mu.Unlock()
		s.mu.Unlock()
		obsJobsCoalesced.Add(1)
		logServeEvent("serve.coalesce", j.trace, fp, map[string]any{"job": j.id})
		s.accepted(w, j, true)
		return
	}
	s.nextID++
	j := &job{
		id:       fmt.Sprintf("j%06d", s.nextID),
		fp:       fp,
		req:      req,
		kind:     kind,
		trace:    obs.NewTraceID(),
		state:    "queued",
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	// Register and enqueue under one lock: a concurrent identical request
	// must not coalesce onto a job that the shed path is about to retract.
	// TryEnqueue never blocks, so holding the mutex across it is cheap.
	// The trace binding around TryEnqueue is what the queue captures and
	// re-binds on the worker that eventually runs the job.
	s.jobs[j.id] = j
	s.inflight[fp] = j
	restore := obs.SetTrace(j.trace)
	admitted := s.queue.TryEnqueue(j)
	restore()
	if !admitted {
		delete(s.jobs, j.id)
		delete(s.inflight, fp)
		s.mu.Unlock()
		obsJobsShed.Add(1)
		logServeEvent("serve.reject", j.trace, fp, map[string]any{"queue_depth": s.queue.Depth()})
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		httpError(w, http.StatusTooManyRequests, "queue full (%d pending); retry later", s.queue.Depth())
		return
	}
	s.mu.Unlock()
	obsJobsAccepted.Add(1)
	obsQueueDepth.Observe(int64(s.queue.Depth()))
	logServeEvent("serve.admit", j.trace, fp, map[string]any{"job": j.id, "kind": kind})
	s.accepted(w, j, false)
}

// logServeEvent records one structured admission-path event, gated so
// the fields map is never built while the log is off.
func logServeEvent(event, trace, fp string, fields map[string]any) {
	if !obs.LogEnabled() {
		return
	}
	if fields == nil {
		fields = map[string]any{}
	}
	fields["fp"] = fp
	obs.LogEvent(event, trace, fields)
}

func (s *Server) accepted(w http.ResponseWriter, j *job, coalesced bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"job":       j.id,
		"coalesced": coalesced,
		"poll":      "/jobs/" + j.id,
	})
}

// exec runs one job on a queue worker: compile the benchmark, fetch or
// build the WearPlan through the cache, simulate, then retire the job's
// scoped telemetry — every series (and the heatmap it carries) under
// the job's "serve.<id>." prefix, whether the job succeeded, failed or
// panicked. The samples live on in the JobResult, so the registry stays
// bounded no matter how many jobs the server has run. Retiring comes
// before finish publishes the terminal state: a poller that sees the
// job done or failed never sees its series.
func (s *Server) exec(j *job) {
	j.mu.Lock()
	j.state = "running"
	j.started = time.Now()
	j.mu.Unlock()

	result, err := s.contained(j)
	for _, series := range jobSeries(j.id) {
		obs.RemoveSeries(series.Name())
	}
	s.finish(j, result, err, "")
}

// jobSeries lists the live series a job registered under its
// "serve.<id>." prefix (the SeriesPrefix its runs are given).
func jobSeries(id string) []*obs.Series {
	prefix := "serve." + id + "."
	var out []*obs.Series
	for _, series := range obs.AllSeries() {
		if strings.HasPrefix(series.Name(), prefix) {
			out = append(out, series)
		}
	}
	return out
}

// contained runs the job, turning a panic anywhere under it — including
// one the worker pool carried over from an engine goroutine — into the
// job's error, so one bad job fails alone instead of taking the server
// and every other in-flight job down. The panic is counted and logged as
// a serve.panic event with its stack.
func (s *Server) contained(j *job) (result *JobResult, err error) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		msg := fmt.Sprint(v)
		first, _, _ := strings.Cut(msg, "\n")
		result, err = nil, fmt.Errorf("job panicked: %s", first)
		obsJobsPanicked.Add(1)
		if obs.LogEnabled() {
			obs.LogEvent("serve.panic", j.trace, map[string]any{
				"job": j.id, "fp": j.fp, "panic": msg, "stack": string(debug.Stack()),
			})
		}
	}()
	if s.testBeforeRun != nil {
		s.testBeforeRun(j)
	}
	return s.run(j)
}

func (s *Server) run(j *job) (*JobResult, error) {
	req := j.req
	bench, err := req.compile()
	if err != nil {
		return nil, err
	}
	tech, err := req.technology()
	if err != nil {
		return nil, err
	}
	strategies, err := parseStrategies(req.Strategies)
	if err != nil {
		return nil, err
	}
	rc := pim.RunConfig{
		Iterations:     req.Iterations,
		RecompileEvery: req.RecompileEvery,
		Seed:           req.Seed,
		// Budget the engine pool against the job workers so a full queue
		// does not oversubscribe the CPU cfg.Workers-fold.
		Workers:      pool.Share(runtime.GOMAXPROCS(0), s.cfg.Workers),
		SampleEvery:  req.SampleEvery,
		SeriesPrefix: "serve." + j.id + ".",
	}

	if j.kind == "fleet" {
		out, hit, err := s.runFleet(j, bench, rc, strategies)
		if hit {
			obsCacheHits.Add(1)
		} else {
			obsCacheMisses.Add(1)
		}
		return out, err
	}
	if j.kind == "run" && strategies == nil {
		// A /run naming no strategy simulates the St×St baseline.
		strategies = []pim.Strategy{pim.StaticStrategy}
	}
	results, hit, err := s.cfg.Cache.Sweep(bench, req.options(), rc, strategies, tech)
	if hit {
		obsCacheHits.Add(1)
	} else {
		obsCacheMisses.Add(1)
	}
	if err != nil {
		return nil, err
	}
	out := buildResult(j, results, hit)
	// The JobResult keeps only summaries and a checksum, so the per-cell
	// write distributions go back to their plan's arena: steady-state
	// traffic against a cached plan recycles counts buffers instead of
	// allocating 8 MB per strategy.
	for _, r := range results {
		r.Dist.Release()
	}
	return out, nil
}

// runFleet executes a POST /fleet job: a fleet-survival study through
// the shared PlanCache, with per-draw-batch progress on a job-scoped
// series that GET /jobs/<id> picks up by prefix and that is retired
// with the job.
func (s *Server) runFleet(j *job, bench *pim.Benchmark, rc pim.RunConfig, strategies []pim.Strategy) (*JobResult, bool, error) {
	req := j.req
	techs, err := req.technologies()
	if err != nil {
		return nil, false, err
	}
	series := obs.NewSeries("serve."+j.id+".fleet", "devices")
	fc := pim.FleetConfig{
		Devices: req.Devices,
		Sigmas:  req.Sigmas,
		Seed:    req.Seed,
		Series:  series,
	}
	points, hit, err := s.cfg.Cache.Fleet(bench, req.options(), rc, strategies, techs, fc)
	if err != nil {
		return nil, hit, err
	}
	out := &JobResult{Benchmark: bench.Name, CacheHit: hit}
	for _, p := range points {
		out.Fleet = append(out.Fleet, FleetRow{
			Strategy:                p.Strategy.Name(),
			Technology:              p.Technology.Name,
			Sigma:                   p.Sigma,
			Devices:                 p.Devices,
			Groups:                  p.Groups,
			Cells:                   p.Cells,
			MeanIterations:          p.MeanIterations,
			B1Iterations:            p.Quantiles[0],
			B10Iterations:           p.Quantiles[1],
			B50Iterations:           p.Quantiles[2],
			DeterministicIterations: p.DeterministicIterations,
			B1Seconds:               p.Seconds(p.Quantiles[0]),
			MeanSeconds:             p.Seconds(p.MeanIterations),
		})
	}
	return out, hit, nil
}

// finish moves a job to its terminal state and retires it from the
// coalescing and history maps. The job leaves the coalescing map before
// its terminal state is published, so a client that sees it finished and
// posts the same request again starts a new job instead of joining this
// one.
func (s *Server) finish(j *job, result *JobResult, err error, state string) {
	s.mu.Lock()
	if s.inflight[j.fp] == j {
		delete(s.inflight, j.fp)
	}
	s.mu.Unlock()

	j.mu.Lock()
	switch {
	case state != "":
		j.state = state
	case err != nil:
		j.state = "failed"
	default:
		j.state = "done"
	}
	if err != nil {
		j.err = err.Error()
	}
	j.result = result
	j.finished = time.Now()
	terminal := j.state
	queueWait, compute, total := j.breakdownLocked()
	j.mu.Unlock()
	close(j.done)
	if s.testFinished != nil {
		s.testFinished(j)
	}

	switch terminal {
	case "done":
		obsJobsCompleted.Add(1)
	case "failed":
		obsJobsFailed.Add(1)
	}
	if terminal == "done" || terminal == "failed" {
		obsJobSeconds.ObserveDuration(total)
		obsQueueWaitSeconds.ObserveDuration(queueWait)
		obsComputeSeconds.ObserveDuration(compute)
	}
	if obs.LogEnabled() {
		obs.LogEvent("serve.complete", j.trace, map[string]any{
			"job":        j.id,
			"fp":         j.fp,
			"state":      terminal,
			"queue_ms":   queueWait.Milliseconds(),
			"compute_ms": compute.Milliseconds(),
			"total_ms":   total.Milliseconds(),
		})
	}

	s.mu.Lock()
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.History {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

// JobResult is a completed job's outcome: one row per strategy plus the
// cache disposition.
type JobResult struct {
	// Benchmark echoes the compiled kernel name; CacheHit reports
	// whether the job reused a cached WearPlan (results are
	// bit-identical either way).
	Benchmark string `json:"benchmark"`
	CacheHit  bool   `json:"cache_hit"`
	// Strategies holds one row per simulated strategy, in sweep order
	// (empty for /fleet jobs).
	Strategies []StrategyResult `json:"strategies"`
	// Fleet holds one row per strategy × technology × σ sweep point of a
	// POST /fleet job, in study order (nil otherwise).
	Fleet []FleetRow `json:"fleet,omitempty"`
}

// FleetRow is one fleet-survival sweep point, flattened for JSON
// clients: B-life quantiles against the paper's deterministic Eq. 4
// value.
type FleetRow struct {
	Strategy   string  `json:"strategy"`
	Technology string  `json:"technology"`
	Sigma      float64 `json:"sigma"`
	Devices    int     `json:"devices"`
	// Groups vs Cells is the order-statistic collapse factor.
	Groups int `json:"groups"`
	Cells  int `json:"cells"`
	// MeanIterations and the B-lives are fleet first-failure iteration
	// counts; DeterministicIterations is the Fig. 17 ranking metric.
	MeanIterations          float64 `json:"mean_iterations"`
	B1Iterations            float64 `json:"b1_iterations"`
	B10Iterations           float64 `json:"b10_iterations"`
	B50Iterations           float64 `json:"b50_iterations"`
	DeterministicIterations float64 `json:"deterministic_iterations"`
	// B1Seconds and MeanSeconds are wall-clock conversions on the row's
	// technology.
	B1Seconds   float64 `json:"b1_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
}

// StrategyResult is one strategy's endurance outcome, flattened for
// JSON clients.
type StrategyResult struct {
	// Strategy is the paper label ("RaxBs+Hw").
	Strategy string `json:"strategy"`
	// MaxWritesPerIteration, Utilization and Imbalance mirror
	// pim.Result.
	MaxWritesPerIteration float64 `json:"max_writes_per_iteration"`
	Utilization           float64 `json:"utilization"`
	Imbalance             float64 `json:"imbalance"`
	// IterationsToFailure and LifetimeSeconds are the Eq. 4 estimate.
	IterationsToFailure float64 `json:"iterations_to_failure"`
	LifetimeSeconds     float64 `json:"lifetime_seconds"`
	// MaxWrites and TotalWrites summarize the write distribution;
	// DistFNV is an FNV-64a checksum over its per-cell counts, the
	// bit-identity witness for cached-vs-cold comparisons.
	MaxWrites   uint64 `json:"max_writes"`
	TotalWrites uint64 `json:"total_writes"`
	DistFNV     string `json:"dist_fnv"`
	// Improvement is the lifetime factor over the St×St baseline
	// (present only when the job includes that baseline).
	Improvement float64 `json:"improvement,omitempty"`
	// Wear carries the per-epoch telemetry snapshot when the request
	// set sample_every.
	Wear *WearSnapshot `json:"wear,omitempty"`
}

// WearSnapshot is a job-lifetime copy of a wear series: the live
// obs.Series is unregistered when the job completes, so the samples
// move into the result.
type WearSnapshot struct {
	// Columns and Samples mirror obs.Series.
	Columns []string    `json:"columns"`
	Samples [][]float64 `json:"samples"`
}

func buildResult(j *job, results []*pim.Result, hit bool) *JobResult {
	out := &JobResult{CacheHit: hit}
	improvements := map[string]float64{}
	if imps, err := pim.Improvements(results); err == nil {
		for _, imp := range imps {
			improvements[imp.Strategy.Name()] = imp.Factor
		}
	}
	for _, r := range results {
		out.Benchmark = r.Benchmark
		row := StrategyResult{
			Strategy:              r.Strategy.Name(),
			MaxWritesPerIteration: r.MaxWritesPerIteration,
			Utilization:           r.Utilization,
			Imbalance:             r.Imbalance,
			IterationsToFailure:   r.Lifetime.IterationsToFailure,
			LifetimeSeconds:       r.Lifetime.Seconds,
			MaxWrites:             r.Summary.Max,
			TotalWrites:           r.Summary.Total,
			DistFNV:               r.Dist.Checksum(),
			Improvement:           improvements[r.Strategy.Name()],
		}
		if r.Wear != nil {
			row.Wear = &WearSnapshot{Columns: r.Wear.Columns(), Samples: r.Wear.Samples()}
		}
		out.Strategies = append(out.Strategies, row)
	}
	return out
}

// jobStatus is the GET /jobs/<id> body.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Coalesced int    `json:"coalesced"`
	// Trace is the job's obs trace id; GET /jobs/<id>/trace exports the
	// span events stamped with it as a Chrome trace document.
	Trace string `json:"trace,omitempty"`
	// EnqueuedMS/StartedMS/FinishedMS are Unix milliseconds (0 when the
	// job has not reached that point).
	EnqueuedMS int64 `json:"enqueued_ms"`
	StartedMS  int64 `json:"started_ms,omitempty"`
	FinishedMS int64 `json:"finished_ms,omitempty"`
	// QueueMS/ComputeMS/TotalMS are the finished job's latency breakdown
	// (absent while it is still queued or running).
	QueueMS   int64 `json:"queue_ms,omitempty"`
	ComputeMS int64 `json:"compute_ms,omitempty"`
	TotalMS   int64 `json:"total_ms,omitempty"`
	// Progress lists the job's live wear series while it runs.
	Progress []progressEntry `json:"progress,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   *JobResult      `json:"result,omitempty"`
}

// progressEntry is one live wear series of a running job: its last
// sample, so pollers see per-epoch movement without pulling /series.
type progressEntry struct {
	Series  string    `json:"series"`
	Columns []string  `json:"columns"`
	Epochs  int       `json:"epochs"`
	Last    []float64 `json:"last,omitempty"`
}

func unixMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request, rest string) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id, sub, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		// One 404 shape for both never-existed and completed-and-evicted
		// ids: the history ring forgets the oldest finished jobs, so a
		// stale id is indistinguishable from a wrong one.
		httpError(w, http.StatusNotFound, "unknown job %q (never accepted, or evicted from history)", id)
		return
	}
	switch sub {
	case "":
		// fall through to the status body below
	case "trace":
		j.mu.Lock()
		trace := j.trace
		j.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteTraceFor(w, trace)
		return
	default:
		httpError(w, http.StatusNotFound, "unknown job subresource %q (only /jobs/<id> and /jobs/<id>/trace exist)", sub)
		return
	}
	j.mu.Lock()
	st := jobStatus{
		ID:         j.id,
		State:      j.state,
		Coalesced:  j.coalesced,
		Trace:      j.trace,
		EnqueuedMS: unixMS(j.enqueued),
		StartedMS:  unixMS(j.started),
		FinishedMS: unixMS(j.finished),
		Error:      j.err,
		Result:     j.result,
	}
	if !j.finished.IsZero() {
		queueWait, compute, total := j.breakdownLocked()
		st.QueueMS, st.ComputeMS, st.TotalMS = queueWait.Milliseconds(), compute.Milliseconds(), total.Milliseconds()
	}
	running := j.state == "running"
	j.mu.Unlock()
	if running {
		for _, series := range jobSeries(id) {
			st.Progress = append(st.Progress, progressEntry{
				Series:  series.Name(),
				Columns: series.Columns(),
				Epochs:  series.Len(),
				Last:    series.Last(),
			})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	type row struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	s.mu.Lock()
	rows := make([]row, 0, len(s.jobs))
	for _, j := range s.jobs {
		j.mu.Lock()
		rows = append(rows, row{ID: j.id, State: j.state})
		j.mu.Unlock()
	}
	s.mu.Unlock()
	sort.Slice(rows, func(i, k int) bool { return rows[i].ID < rows[k].ID })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"jobs": rows})
}
