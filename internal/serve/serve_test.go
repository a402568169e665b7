package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimendure/internal/obs"
	"pimendure/internal/pool"
	"pimendure/pim"
)

// enableObs turns the observability layer on for a test that asserts
// serve.* counter movement (counters are no-ops while disabled).
func enableObs(t *testing.T) {
	t.Helper()
	if obs.Enabled() {
		return
	}
	obs.Enable()
	t.Cleanup(obs.Disable)
}

// smallSweep is the test workload: small enough to sweep in
// milliseconds, large enough to exercise recompile epochs.
func smallSweep() map[string]any {
	return map[string]any{
		"benchmark":       "mult",
		"bits":            8,
		"lanes":           16,
		"rows":            512,
		"iterations":      300,
		"recompile_every": 50,
		"seed":            7,
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body map[string]any) (int, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: bad JSON body: %v", url, err)
	}
	return resp.StatusCode, out
}

func submitJob(t *testing.T, client *http.Client, base string, body map[string]any) string {
	t.Helper()
	code, out := postJSON(t, client, base+"/sweep", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, out)
	}
	id, _ := out["job"].(string)
	if id == "" {
		t.Fatalf("submit: no job id in %v", out)
	}
	return id
}

// pollDone polls GET /jobs/<id> until the job reaches a terminal state.
func pollDone(t *testing.T, client *http.Client, base, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("poll %s: bad JSON: %v", id, err)
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return jobStatus{}
}

// A served sweep must be bit-identical to a direct pim.Sweep, and a
// second identical request must hit the WearPlan cache and agree with
// the first to the last bit.
func TestSweepEndToEndBitIdentical(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	opt := pim.Options{Lanes: 16, Rows: 512, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewParallelMult(opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	rc := pim.RunConfig{Iterations: 300, RecompileEvery: 50, Seed: 7}
	cold, err := pim.Sweep(bench, opt, rc, nil, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}

	enableObs(t)
	hitsBefore := obs.GetCounter("serve.cache_hits").Value()

	first := pollDone(t, ts.Client(), ts.URL, submitJob(t, ts.Client(), ts.URL, smallSweep()))
	if first.State != "done" {
		t.Fatalf("first job state %q (err %q)", first.State, first.Error)
	}
	if first.Result == nil || len(first.Result.Strategies) != len(cold) {
		t.Fatalf("first job returned %d strategies, want %d", len(first.Result.Strategies), len(cold))
	}
	if first.Result.CacheHit {
		t.Error("first request reported a cache hit on a fresh server")
	}
	for i, r := range cold {
		row := first.Result.Strategies[i]
		if row.Strategy != r.Strategy.Name() {
			t.Fatalf("row %d is %s, want %s", i, row.Strategy, r.Strategy.Name())
		}
		if row.DistFNV != r.Dist.Checksum() {
			t.Errorf("%s: served distribution differs from cold pim.Sweep", row.Strategy)
		}
		if row.MaxWrites != r.Dist.Max() || row.TotalWrites != r.Dist.Total() ||
			row.MaxWritesPerIteration != r.MaxWritesPerIteration ||
			row.LifetimeSeconds != r.Lifetime.Seconds {
			t.Errorf("%s: served summary differs from cold pim.Sweep", row.Strategy)
		}
	}

	second := pollDone(t, ts.Client(), ts.URL, submitJob(t, ts.Client(), ts.URL, smallSweep()))
	if second.State != "done" {
		t.Fatalf("second job state %q (err %q)", second.State, second.Error)
	}
	if !second.Result.CacheHit {
		t.Error("identical repeat request missed the WearPlan cache")
	}
	if got := obs.GetCounter("serve.cache_hits").Value(); got <= hitsBefore {
		t.Errorf("serve.cache_hits = %d, want > %d", got, hitsBefore)
	}
	for i := range first.Result.Strategies {
		if first.Result.Strategies[i].DistFNV != second.Result.Strategies[i].DistFNV {
			t.Errorf("%s: cached result differs from cold result",
				first.Result.Strategies[i].Strategy)
		}
	}
}

// Identical in-flight requests coalesce onto one job id; distinct
// requests do not.
func TestCoalescing(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.testBeforeRun = func(j *job) {
		started <- j.id
		<-release
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	enableObs(t)
	coalescedBefore := obs.GetCounter("serve.jobs_coalesced").Value()
	a := submitJob(t, ts.Client(), ts.URL, smallSweep())
	<-started // job a is running (held by the hook)

	b := submitJob(t, ts.Client(), ts.URL, smallSweep())
	if b != a {
		t.Errorf("identical in-flight request got job %s, want coalesced onto %s", b, a)
	}
	code, out := postJSON(t, ts.Client(), ts.URL+"/sweep", smallSweep())
	if code != http.StatusAccepted || out["coalesced"] != true {
		t.Errorf("coalesced submit: status %d, body %v", code, out)
	}
	if got := obs.GetCounter("serve.jobs_coalesced").Value(); got < coalescedBefore+2 {
		t.Errorf("serve.jobs_coalesced = %d, want ≥ %d", got, coalescedBefore+2)
	}

	distinct := smallSweep()
	distinct["seed"] = 99
	c := submitJob(t, ts.Client(), ts.URL, distinct)
	if c == a {
		t.Error("distinct request coalesced onto a different job")
	}

	close(release)
	if st := pollDone(t, ts.Client(), ts.URL, a); st.State != "done" {
		t.Errorf("job %s state %q (err %q)", a, st.State, st.Error)
	}
	if st := pollDone(t, ts.Client(), ts.URL, c); st.State != "done" {
		t.Errorf("job %s state %q (err %q)", c, st.State, st.Error)
	}

	// The coalescing window closed with the job: a fresh identical
	// request gets a new id.
	if d := submitJob(t, ts.Client(), ts.URL, smallSweep()); d == a {
		t.Error("request coalesced onto a finished job")
	}
	// started stays open: job d's hook may still be sending into its
	// buffer, which has room for every job this test submits.
}

// A request posted after its twin finished must not join the finished
// job. The hook holds the finishing worker just after the job's terminal
// state is published — where the coalescing entry used to outlive it —
// while the client sees the job done and posts the same body again: it
// gets a new job, which finds the first job's plan in the cache.
func TestNoCoalescingOntoFinishedJob(t *testing.T) {
	published := make(chan string, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 2, QueueDepth: 4})
	var once sync.Once
	s.testFinished = func(j *job) {
		once.Do(func() {
			published <- j.id
			<-release
		})
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	enableObs(t)
	coalescedBefore := obs.GetCounter("serve.jobs_coalesced").Value()
	a := submitJob(t, ts.Client(), ts.URL, smallSweep())
	if id := <-published; id != a {
		t.Fatalf("hook held job %s, want %s", id, a)
	}
	if st := pollDone(t, ts.Client(), ts.URL, a); st.State != "done" {
		t.Fatalf("job %s state %q (err %q)", a, st.State, st.Error)
	}
	code, out := postJSON(t, ts.Client(), ts.URL+"/sweep", smallSweep())
	close(release)
	if code != http.StatusAccepted || out["coalesced"] != false || out["job"] == a {
		t.Fatalf("repeat of a finished job: status %d, body %v; want a new, uncoalesced job", code, out)
	}
	b, _ := out["job"].(string)
	st := pollDone(t, ts.Client(), ts.URL, b)
	if st.State != "done" || !st.Result.CacheHit {
		t.Errorf("repeat job %s: state %q (err %q), cache hit %v; want done from the cached plan",
			b, st.State, st.Error, st.Result != nil && st.Result.CacheHit)
	}
	if got := obs.GetCounter("serve.jobs_coalesced").Value(); got != coalescedBefore {
		t.Errorf("serve.jobs_coalesced moved from %d to %d", coalescedBefore, got)
	}
}

// A full queue sheds with a clean 429 + Retry-After, not a dropped
// connection, and the shed request leaves no trace in the jobs map.
func TestSheddingReturns429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	s := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	s.testBeforeRun = func(j *job) {
		started <- j.id
		<-release
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	enableObs(t)
	shedBefore := obs.GetCounter("serve.jobs_shed").Value()
	reqN := func(seed int) map[string]any {
		m := smallSweep()
		m["seed"] = seed
		return m
	}
	submitJob(t, ts.Client(), ts.URL, reqN(1))
	<-started // worker holds job 1; the queue is empty again
	submitJob(t, ts.Client(), ts.URL, reqN(2))

	data, _ := json.Marshal(reqN(3))
	resp, err := ts.Client().Post(ts.URL+"/sweep", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("shed request dropped the connection: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
		t.Errorf("429 body not a JSON error: %v / %v", body, err)
	}
	if got := obs.GetCounter("serve.jobs_shed").Value(); got != shedBefore+1 {
		t.Errorf("serve.jobs_shed = %d, want %d", got, shedBefore+1)
	}

	close(release)
}

// Malformed and oversized requests are rejected with 400 before any
// compilation happens; wrong methods get 405; unknown jobs 404.
func TestRequestValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for name, body := range map[string]map[string]any{
		"missing benchmark": {},
		"unknown benchmark": {"benchmark": "fft"},
		"oversized array":   {"benchmark": "mult", "lanes": 1 << 20},
		"too many iters":    {"benchmark": "mult", "iterations": 1 << 30},
		"bad strategy":      {"benchmark": "mult", "strategies": []string{"XxYy"}},
		"bad technology":    {"benchmark": "mult", "technology": "SRAM"},
		"unknown field":     {"benchmark": "mult", "bogus": 1},
	} {
		if code, out := postJSON(t, ts.Client(), ts.URL+"/sweep", body); code != http.StatusBadRequest || out["error"] == "" {
			t.Errorf("%s: status %d body %v, want 400 with error", name, code, out)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sweep = %d, want 405", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", resp.StatusCode)
	}
}

// POST /run simulates exactly one strategy and agrees bit-for-bit with
// a direct pim.Run.
func TestRunEndpoint(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := smallSweep()
	body["strategies"] = []string{"RaxBs+Hw"}
	code, out := postJSON(t, ts.Client(), ts.URL+"/run", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST /run: status %d body %v", code, out)
	}
	st := pollDone(t, ts.Client(), ts.URL, out["job"].(string))
	if st.State != "done" {
		t.Fatalf("run job state %q (err %q)", st.State, st.Error)
	}
	if len(st.Result.Strategies) != 1 || st.Result.Strategies[0].Strategy != "RaxBs+Hw" {
		t.Fatalf("run result rows %v, want exactly RaxBs+Hw", st.Result.Strategies)
	}

	opt := pim.Options{Lanes: 16, Rows: 512, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewParallelMult(opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pim.Run(bench, opt,
		pim.RunConfig{Iterations: 300, RecompileEvery: 50, Seed: 7},
		pim.Strategy{Within: pim.Random, Between: pim.ByteShift, Hw: true}, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.Strategies[0].DistFNV != want.Dist.Checksum() {
		t.Error("served /run distribution differs from direct pim.Run")
	}
}

// POST /run simulates one strategy; a body naming several is rejected at
// admission with a pointer to /sweep rather than run on its first.
func TestRunRejectsSeveralStrategies(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := smallSweep()
	body["strategies"] = []string{"StxSt", "RaxBs+Hw"}
	code, out := postJSON(t, ts.Client(), ts.URL+"/run", body)
	if code != http.StatusBadRequest {
		t.Fatalf("POST /run with two strategies: status %d body %v, want 400", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "/sweep") {
		t.Errorf("error %q does not point at /sweep", msg)
	}
}

// A sampled job's wear series are registered under the job's scoped
// prefix while it runs and unregistered at completion; the samples
// survive in the result.
func TestSeriesScopedToJob(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := smallSweep()
	body["sample_every"] = 2
	body["strategies"] = []string{"StxSt", "RaxRa"}
	st := pollDone(t, ts.Client(), ts.URL, submitJob(t, ts.Client(), ts.URL, body))
	if st.State != "done" {
		t.Fatalf("job state %q (err %q)", st.State, st.Error)
	}
	for _, row := range st.Result.Strategies {
		if row.Wear == nil || len(row.Wear.Samples) == 0 {
			t.Errorf("%s: sampled job returned no wear snapshot", row.Strategy)
		}
	}
	for _, series := range obs.AllSeries() {
		if strings.HasPrefix(series.Name(), "serve.") {
			t.Errorf("series %q still registered after job completion", series.Name())
		}
	}
}

// A finished job must expose its trace id and latency breakdown, its
// span events must be filterable at GET /jobs/<id>/trace, and the
// structured log must hold its admission and completion records.
func TestJobTelemetryLifecycle(t *testing.T) {
	enableObs(t)
	obs.EnableEvents(0)
	t.Cleanup(obs.DisableEvents)
	obs.EnableLog(0)
	t.Cleanup(obs.DisableLog)

	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submitJob(t, ts.Client(), ts.URL, smallSweep())
	st := pollDone(t, ts.Client(), ts.URL, id)
	if st.State != "done" {
		t.Fatalf("job state %q (err %q)", st.State, st.Error)
	}
	if st.Trace == "" {
		t.Fatal("finished job carries no trace id")
	}
	if st.TotalMS < 0 || st.QueueMS < 0 || st.ComputeMS < 0 {
		t.Errorf("negative breakdown: queue %d compute %d total %d", st.QueueMS, st.ComputeMS, st.TotalMS)
	}
	if st.FinishedMS < st.EnqueuedMS {
		t.Errorf("finished %d before enqueued %d", st.FinishedMS, st.EnqueuedMS)
	}

	resp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/trace = %d, want 200", id, resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("per-job trace is empty — trace id did not propagate into the engine spans")
	}
	names := map[string]bool{}
	for _, te := range doc.TraceEvents {
		names[te.Name] = true
		if te.Args["trace"] != st.Trace {
			t.Errorf("event %s stamped %v, want %s", te.Name, te.Args["trace"], st.Trace)
		}
	}
	if !names["pool.queue.job"] {
		t.Errorf("trace lacks the queue pickup span; saw %v", names)
	}

	var admit, complete bool
	for _, rec := range obs.LogRecords(0) {
		if rec.Trace != st.Trace {
			continue
		}
		switch rec.Event {
		case "serve.admit":
			admit = true
			if rec.Fields["job"] != id {
				t.Errorf("admit record names job %v, want %s", rec.Fields["job"], id)
			}
		case "serve.complete":
			complete = true
			if rec.Fields["state"] != "done" {
				t.Errorf("complete record state = %v", rec.Fields["state"])
			}
			if _, ok := rec.Fields["total_ms"]; !ok {
				t.Error("complete record lacks the latency breakdown")
			}
			if rec.Fields["fp"] == "" {
				t.Error("complete record lacks the config fingerprint")
			}
		}
	}
	if !admit || !complete {
		t.Errorf("log missing lifecycle records: admit=%v complete=%v", admit, complete)
	}
}

// A job that panics — on its own goroutine, or on an engine pool worker
// its panic is carried back from — ends failed with the panic value, is
// counted on /metrics and logged with its stack, and the server goes on
// to serve the next job.
func TestPanickingJobFailsAlone(t *testing.T) {
	enableObs(t)
	obs.EnableLog(0)
	t.Cleanup(obs.DisableLog)

	var calls atomic.Int32
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.testBeforeRun = func(j *job) {
		switch calls.Add(1) {
		case 1:
			// A job-scoped series registered before the panic must be
			// retired with the failed job.
			obs.NewSeries("serve."+j.id+".wear", "epoch")
			panic("boom on the queue worker")
		case 2:
			// Both items wait for each other, so slot 1 is certain to run.
			var barrier sync.WaitGroup
			barrier.Add(2)
			pool.ForEachWorker(2, 2, func(slot, _ int) {
				barrier.Done()
				barrier.Wait()
				if slot == 1 {
					panic("boom on a pool worker")
				}
			})
		}
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	panickedBefore := obs.GetCounter("serve.jobs_panicked").Value()
	failedBefore := obs.GetCounter("serve.jobs_failed").Value()
	withSeed := func(seed int) map[string]any {
		m := smallSweep()
		m["seed"] = seed
		return m
	}
	for i, want := range []string{"boom on the queue worker", "boom on a pool worker"} {
		st := pollDone(t, ts.Client(), ts.URL, submitJob(t, ts.Client(), ts.URL, withSeed(100+i)))
		if st.State != "failed" || st.Error != "job panicked: "+want {
			t.Errorf("panicking job %d: state %q, error %q; want failed with %q", i, st.State, st.Error, want)
		}
		if st.Result != nil {
			t.Errorf("panicking job %d carries a result", i)
		}
	}
	if st := pollDone(t, ts.Client(), ts.URL, submitJob(t, ts.Client(), ts.URL, withSeed(102))); st.State != "done" {
		t.Fatalf("job after the panics: state %q (err %q), want done", st.State, st.Error)
	}

	for _, series := range obs.AllSeries() {
		if strings.HasSuffix(series.Name(), ".wear") && strings.HasPrefix(series.Name(), "serve.") {
			t.Errorf("failed job left its series %s registered", series.Name())
		}
	}
	if got := obs.GetCounter("serve.jobs_panicked").Value(); got != panickedBefore+2 {
		t.Errorf("serve.jobs_panicked = %d, want %d", got, panickedBefore+2)
	}
	if got := obs.GetCounter("serve.jobs_failed").Value(); got != failedBefore+2 {
		t.Errorf("serve.jobs_failed = %d, want %d", got, failedBefore+2)
	}
	var expo bytes.Buffer
	if err := obs.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nserve_jobs_panicked %d\n", panickedBefore+2); !strings.Contains(expo.String(), want) {
		t.Errorf("/metrics exposition lacks %q", strings.TrimSpace(want))
	}
	var logged []string
	for _, rec := range obs.LogRecords(0) {
		if rec.Event != "serve.panic" {
			continue
		}
		stack, _ := rec.Fields["stack"].(string)
		if !strings.Contains(stack, "goroutine") {
			t.Errorf("serve.panic record for %v lacks a stack", rec.Fields["job"])
		}
		msg, _ := rec.Fields["panic"].(string)
		logged = append(logged, msg)
	}
	if len(logged) != 2 || !strings.HasPrefix(logged[0], "boom on the queue worker") ||
		!strings.HasPrefix(logged[1], "boom on a pool worker") || !strings.Contains(logged[1], "pool worker stack") {
		t.Errorf("serve.panic records %q, want one per panicking job with the pool worker's stack on the second", logged)
	}
}

// Stale and malformed job URLs must return clean JSON 404s: a job
// evicted from the bounded history, and an unknown subresource.
func TestJob404Regressions(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, History: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := submitJob(t, ts.Client(), ts.URL, smallSweep())
	pollDone(t, ts.Client(), ts.URL, first)
	second := smallSweep()
	second["seed"] = 99
	pollDone(t, ts.Client(), ts.URL, submitJob(t, ts.Client(), ts.URL, second))

	expect404 := func(path string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q, want application/json", path, ct)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
			t.Errorf("GET %s: 404 body not a JSON error: %v / %v", path, body, err)
		}
	}
	// History 1 keeps only the second job; the first is evicted.
	expect404("/jobs/" + first)
	expect404("/jobs/nonexistent")
	expect404("/jobs/nonexistent/trace")
	expect404("/jobs/" + "j000002" + "/bogus")
}

// The acceptance gate: 1000 concurrent requests against a small queue.
// Every request must get a clean HTTP answer — 202 for admitted or
// coalesced work, 429 for shed work — with zero dropped connections,
// and every accepted job must reach a terminal state. With telemetry
// fully on, the storm also hammers the histogram, trace and log hot
// paths under the race detector, and the structured log's admission
// arithmetic must balance the client-side tallies exactly.
func TestThousandConcurrentRequests(t *testing.T) {
	enableObs(t)
	obs.EnableEvents(0)
	t.Cleanup(obs.DisableEvents)
	obs.EnableLog(0)
	t.Cleanup(obs.DisableLog)
	jobHistBefore := obs.GetDurationHistogram("serve.job").Count()

	s := New(Config{Workers: 4, QueueDepth: 8})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}
	defer client.CloseIdleConnections()

	const n = 1000
	var accepted, shed, other, dropped atomic.Int64
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// 32 distinct request shapes: plenty of coalescing and cache
			// hits, plus enough variety to keep the queue churning.
			body := map[string]any{
				"benchmark":       "mult",
				"bits":            4,
				"lanes":           16,
				"rows":            256,
				"iterations":      60,
				"recompile_every": 20,
				"seed":            i % 32,
				"strategies":      []string{"StxSt"},
			}
			data, _ := json.Marshal(body)
			resp, err := client.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(data))
			if err != nil {
				dropped.Add(1)
				return
			}
			var out map[string]any
			decErr := json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			switch {
			case decErr != nil:
				dropped.Add(1)
			case resp.StatusCode == http.StatusAccepted:
				accepted.Add(1)
				if id, _ := out["job"].(string); id != "" {
					ids <- id
				}
			case resp.StatusCode == http.StatusTooManyRequests:
				shed.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()
	close(ids)

	if dropped.Load() != 0 {
		t.Fatalf("%d requests dropped or returned unparseable bodies", dropped.Load())
	}
	if other.Load() != 0 {
		t.Fatalf("%d requests got a status other than 202/429", other.Load())
	}
	if accepted.Load() == 0 {
		t.Fatal("no request was accepted")
	}
	t.Logf("accepted %d (incl. coalesced), shed %d", accepted.Load(), shed.Load())

	seen := map[string]bool{}
	for id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		st := pollDone(t, client, ts.URL, id)
		if st.State != "done" {
			t.Errorf("job %s finished %q (err %q)", id, st.State, st.Error)
		}
	}

	// The structured log's admission arithmetic must balance the HTTP
	// tallies exactly: every 202 is an admit or a coalesce record, every
	// 429 a reject record.
	var admits, coalesces, rejects int64
	for _, rec := range obs.LogRecords(0) {
		switch rec.Event {
		case "serve.admit":
			admits++
		case "serve.coalesce":
			coalesces++
		case "serve.reject":
			rejects++
		}
	}
	if st := obs.CaptureLogStats(); st.Dropped != 0 {
		t.Fatalf("log dropped %d records; the balance check needs the full history", st.Dropped)
	}
	if admits+coalesces != accepted.Load() {
		t.Errorf("admit(%d) + coalesce(%d) records != %d accepted requests", admits, coalesces, accepted.Load())
	}
	if rejects != shed.Load() {
		t.Errorf("reject records = %d, want %d (shed requests)", rejects, shed.Load())
	}

	// Every admitted job finished, so the latency histogram must have
	// recorded exactly one observation per admit. The observation lands
	// just after the terminal state becomes pollable; give it a moment.
	wantHist := jobHistBefore + admits
	deadline := time.Now().Add(2 * time.Second)
	for obs.GetDurationHistogram("serve.job").Count() < wantHist && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := obs.GetDurationHistogram("serve.job").Count(); got != wantHist {
		t.Errorf("serve.job histogram count = %d, want %d (one per admitted job)", got, wantHist)
	}
}

// Close cancels still-queued jobs cleanly and refuses new work with
// 503.
func TestCloseCancelsQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.testBeforeRun = func(j *job) {
		started <- j.id
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	reqN := func(seed int) map[string]any {
		m := smallSweep()
		m["seed"] = seed
		return m
	}
	running := submitJob(t, ts.Client(), ts.URL, reqN(1))
	<-started
	queued := submitJob(t, ts.Client(), ts.URL, reqN(2))

	go func() {
		// Let the running job finish once Close has stopped admission.
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	s.Close()

	if st := pollDone(t, ts.Client(), ts.URL, running); st.State != "done" {
		t.Errorf("running job finished %q, want done", st.State)
	}
	if st := pollDone(t, ts.Client(), ts.URL, queued); st.State != "canceled" {
		t.Errorf("queued job finished %q, want canceled", st.State)
	}
	if code, _ := postJSON(t, ts.Client(), ts.URL+"/sweep", reqN(3)); code != http.StatusServiceUnavailable {
		t.Errorf("submit after Close = %d, want 503", code)
	}
}

// GET /jobs lists jobs in id order.
func TestListJobs(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	var want []string
	for seed := 0; seed < 3; seed++ {
		body := smallSweep()
		body["seed"] = 40 + seed
		want = append(want, submitJob(t, ts.Client(), ts.URL, body))
	}
	for _, id := range want {
		pollDone(t, ts.Client(), ts.URL, id)
	}
	resp, err := ts.Client().Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != len(want) {
		t.Fatalf("listed %d jobs, want %d", len(out.Jobs), len(want))
	}
	for i, j := range out.Jobs {
		if j.ID != want[i] || j.State != "done" {
			t.Errorf("job row %d = %+v, want id %s state done", i, j, want[i])
		}
	}
}

// Fingerprints must canonicalize: spelling out a default and omitting
// it coalesce to the same key, while a changed parameter does not.
func TestFingerprintCanonicalization(t *testing.T) {
	implicit := Request{Benchmark: "multiplication"}.normalized()
	explicit := Request{Benchmark: "mult", Lanes: 1024, Rows: 1024, Bits: 32,
		Iterations: 10000, RecompileEvery: 100, Technology: "MRAM"}.normalized()
	if implicit.fingerprint("sweep") != explicit.fingerprint("sweep") {
		t.Error("defaulted and spelled-out requests fingerprint differently")
	}
	if implicit.fingerprint("sweep") == implicit.fingerprint("run") {
		t.Error("/sweep and /run share a fingerprint")
	}
	if implicit.fingerprint("sweep") == implicit.fingerprint("fleet") {
		t.Error("/sweep and /fleet share a fingerprint")
	}
	seeded := implicit
	seeded.Seed = 1
	if implicit.fingerprint("sweep") == seeded.fingerprint("sweep") {
		t.Error("different seeds share a fingerprint")
	}
}

func TestParseStrategy(t *testing.T) {
	for label, want := range map[string]pim.Strategy{
		"StxSt":    {Within: pim.Static, Between: pim.Static},
		"RaxBs+Hw": {Within: pim.Random, Between: pim.ByteShift, Hw: true},
		"BsxRa":    {Within: pim.ByteShift, Between: pim.Random},
	} {
		got, err := parseStrategy(label)
		if err != nil {
			t.Errorf("%s: %v", label, err)
			continue
		}
		if got != want {
			t.Errorf("%s parsed to %+v, want %+v", label, got, want)
		}
		if got.Name() != label {
			t.Errorf("%s round-trips to %s", label, got.Name())
		}
	}
	for _, bad := range []string{"", "St", "StSt", "QqxSt", "Stx"} {
		if _, err := parseStrategy(bad); err == nil {
			t.Errorf("malformed strategy %q accepted", bad)
		}
	}
}

// Technology names resolve case-insensitively to the paper's device
// models.
func TestTechnologyLookup(t *testing.T) {
	for _, name := range []string{"MRAM", "rram", "Pcm", "MRAM-projected"} {
		r := Request{Technology: name}
		if _, err := r.technology(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := (Request{Technology: "SRAM"}).technology(); err == nil {
		t.Error("unknown technology accepted")
	}
}

// Every benchmark name compiles through the request path.
func TestCompileAllBenchmarks(t *testing.T) {
	for _, name := range []string{"mult", "dot", "conv", "add", "bnn"} {
		req := Request{Benchmark: name, Lanes: 16, Rows: 512, Bits: 4}.normalized()
		b, err := req.compile()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if b.Name == "" {
			t.Errorf("%s compiled to an unnamed benchmark", name)
		}
	}
}
