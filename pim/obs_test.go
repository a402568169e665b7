package pim_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pimendure/internal/obs"
	"pimendure/internal/serve"
	"pimendure/pim"
)

// The run manifest must report exactly what the API returned: with the
// observability layer enabled, the core.writes counter accumulated over
// an 18-configuration sweep equals the sum of the simulated WriteDist
// totals, the epoch counters are self-consistent with the run
// parameters, and the stage timings cover one core.simulate per
// simulated strategy. mult has no partial-mask writes, so the sweep
// simulates one strategy per (within, +Hw), 6 of the 18, and the other
// 12 share their distributions. (Not parallel: the obs registry is
// process-wide.)
func TestManifestMatchesSweepResults(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()

	opt := pim.Options{Lanes: 8, Rows: 96, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := pim.RunConfig{Iterations: 23, RecompileEvery: 7, Seed: 3, Workers: 2}
	results, err := pim.Sweep(bench, opt, rc, nil, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}

	m := obs.NewManifest("sweeptest")
	m.Seed = rc.Seed
	m.Finish()

	// Each distinct distribution was simulated once, so core.writes
	// balances against the distinct totals.
	var total uint64
	distinct := map[*uint64]bool{}
	for _, r := range results {
		if !distinct[&r.Dist.Counts[0]] {
			distinct[&r.Dist.Counts[0]] = true
			total += r.Dist.Total()
		}
	}
	if len(distinct) != 6 {
		t.Errorf("%d distinct distributions among 18 results, want 6 (one per within strategy and +Hw)", len(distinct))
	}
	if got := m.Counters["core.writes"]; got != int64(total) {
		t.Errorf("manifest core.writes = %d, sum of simulated WriteDist totals = %d", got, total)
	}
	if got := m.Counters["pim.runs_reused"]; got != 12 {
		t.Errorf("manifest pim.runs_reused = %d, want 12 (18 strategies, 6 simulated)", got)
	}

	// 23 iterations at recompile-every-7 is 4 epochs per strategy, 6
	// simulated strategies. Each of the 3 simulated +Hw runs replays its
	// two epoch lengths (7 and 2) once and lands its other 2 epochs from
	// those replays.
	if got := m.Counters["core.epochs"]; got != 6*4 {
		t.Errorf("manifest core.epochs = %d, want %d", got, 6*4)
	}
	replays, hits := m.Counters["core.hw.replays"], m.Counters["core.hw.memo_hits"]
	if replays != 3*2 || hits != 3*2 {
		t.Errorf("hw replays/memo hits = %d/%d, want %d/%d (one replay per epoch length and run, of %d hw epochs)",
			replays, hits, 3*2, 3*2, 3*4)
	}

	// Closed-cycle replay accounting: every +Hw epoch-iteration is either
	// replayed op-by-op (one recording pass per replay) or saved by the
	// shared replays and the closed-form accumulation. 3 simulated +Hw
	// strategies at 23 iterations each is 69 epoch-iterations, 6 of them
	// replayed.
	iters, saved := m.Counters["core.hw.replay_iters"], m.Counters["core.hw.replay_iters_saved"]
	if iters != 3*2 || saved != 3*23-3*2 {
		t.Errorf("replay_iters/replay_iters_saved = %d/%d, want %d/%d (of %d +Hw epoch-iterations)",
			iters, saved, 3*2, 3*23-3*2, 3*23)
	}

	// Software-engine memoization accounting: mult has only full-mask
	// writes, so its software epochs group by within map alone. The St
	// within map is one landing for all 4 epochs (1 simulated strategy);
	// Ra and Bs within maps (96 rows, byte step) differ in every epoch
	// (2 strategies × 4). That is 9 landings, and 3 of the 12 software
	// epochs fold.
	swGroups, swHits := m.Counters["core.sw.groups"], m.Counters["core.sw.memo_hits"]
	if swGroups != 9 || swHits != 3 {
		t.Errorf("sw groups/memo hits = %d/%d, want 9/3 (of %d software epochs)", swGroups, swHits, 3*4)
	}

	stages := map[string]obs.Stage{}
	for _, st := range m.Stages {
		stages[st.Name] = st
	}
	// One shared WearPlan serves the whole sweep: the plan-build stage
	// must have run exactly once for 6 core.simulate stages.
	if st := stages["core.simulate/plan"]; st.Count != 1 {
		t.Errorf("core.simulate/plan stage count = %d, want 1 (plan shared across the sweep)", st.Count)
	}
	if st := stages["core.simulate"]; st.Count != 6 {
		t.Errorf("core.simulate stage count = %d, want 6", st.Count)
	}
	if st := stages["pim.sweep"]; st.Count != 1 {
		t.Errorf("pim.sweep stage count = %d, want 1", st.Count)
	}
	if st := stages["pim.run"]; st.Count != 6 {
		t.Errorf("pim.run stage count = %d, want 6", st.Count)
	}
	if m.Counters["pim.runs"] != 6 || m.Counters["pim.sweeps"] != 1 {
		t.Errorf("pim counters wrong: runs=%d sweeps=%d",
			m.Counters["pim.runs"], m.Counters["pim.sweeps"])
	}
}

// Sweeps that the full-mask identity does not cover simulate every
// strategy: the dot product and the convolution write through partial
// masks, and a sampled sweep registers a live series per strategy. Each
// runs core.simulate and pim.run 18 times, reuses nothing, and
// core.writes balances against all 18 distinct distributions. (Not
// parallel: the obs registry is process-wide.)
func TestSweepWithoutIdentitySimulatesEveryStrategy(t *testing.T) {
	opt := testOptions()
	dot, err := pim.NewDotProduct(opt, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := pim.NewConvolution(opt, 4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	mult, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := pim.RunConfig{Iterations: 23, RecompileEvery: 7, Seed: 3, Workers: 2}
	sampled := rc
	sampled.SampleEvery = 2
	sampled.SeriesPrefix = "identity-test."
	for _, tc := range []struct {
		name  string
		bench *pim.Benchmark
		rc    pim.RunConfig
	}{
		{"dot", dot, rc},
		{"conv", conv, rc},
		{"sampled mult", mult, sampled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs.Reset()
			obs.Enable()
			defer func() {
				obs.Disable()
				obs.Reset()
			}()
			results, err := pim.Sweep(tc.bench, opt, tc.rc, nil, pim.MRAM())
			if err != nil {
				t.Fatal(err)
			}
			var total uint64
			distinct := map[*uint64]bool{}
			for _, r := range results {
				if r.Wear != nil {
					defer obs.RemoveSeries(r.Wear.Name())
				}
				distinct[&r.Dist.Counts[0]] = true
				total += r.Dist.Total()
			}
			m := obs.NewManifest("sweeptest")
			m.Finish()
			if len(distinct) != 18 {
				t.Errorf("%d distinct distributions among 18 results, want 18", len(distinct))
			}
			if got := m.Counters["core.writes"]; got != int64(total) {
				t.Errorf("manifest core.writes = %d, sum of WriteDist totals = %d", got, total)
			}
			if got := m.Counters["pim.runs_reused"]; got != 0 {
				t.Errorf("manifest pim.runs_reused = %d, want 0", got)
			}
			stages := map[string]obs.Stage{}
			for _, st := range m.Stages {
				stages[st.Name] = st
			}
			if st := stages["core.simulate"]; st.Count != 18 {
				t.Errorf("core.simulate stage count = %d, want 18", st.Count)
			}
			if st := stages["pim.run"]; st.Count != 18 {
				t.Errorf("pim.run stage count = %d, want 18", st.Count)
			}
		})
	}
}

// Serving-path telemetry must balance: after a batch of jobs runs
// through a serve.Server, the serve.job latency histogram holds exactly
// one observation per terminal job, i.e. its _count equals
// serve.jobs_completed + serve.jobs_failed — the cross-layer invariant
// that ties the distribution-level telemetry to the counters the
// serving layer has always exported. (Not parallel: the obs registry is
// process-wide.)
func TestServeHistogramBalancesJobCounters(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()

	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	poll := func(id string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				State string `json:"state"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.State == "done" || st.State == "failed" || st.State == "canceled" {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("job %s did not finish", id)
	}
	for seed := 0; seed < 5; seed++ {
		body, _ := json.Marshal(map[string]any{
			"benchmark": "mult", "bits": 4, "lanes": 16, "rows": 256,
			"iterations": 40, "recompile_every": 20, "seed": seed,
			"strategies": []string{"StxSt"},
		})
		resp, err := ts.Client().Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Job string `json:"job"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d err %v", resp.StatusCode, err)
		}
		poll(out.Job)
	}

	// The histogram observation and counter bumps land just after the
	// terminal state becomes pollable; allow them a moment to settle.
	terminal := func() int64 {
		return obs.GetCounter("serve.jobs_completed").Value() + obs.GetCounter("serve.jobs_failed").Value()
	}
	deadline := time.Now().Add(2 * time.Second)
	for (terminal() != 5 || obs.GetDurationHistogram("serve.job").Count() != 5) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := terminal(); got != 5 {
		t.Fatalf("jobs_completed + jobs_failed = %d, want 5", got)
	}
	for _, name := range []string{"serve.job", "serve.queue_wait", "serve.compute"} {
		if got := obs.GetDurationHistogram(name).Count(); got != 5 {
			t.Errorf("%s histogram count = %d, want 5 (one per terminal job)", name, got)
		}
	}
}

// Re-running the same sweep with the layer disabled must leave every
// counter untouched — the disabled path is the one benchmarks take.
func TestSweepRecordsNothingWhenDisabled(t *testing.T) {
	obs.Reset()
	obs.Disable()

	opt := pim.Options{Lanes: 8, Rows: 96, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewParallelMult(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := pim.RunConfig{Iterations: 10, RecompileEvery: 5, Seed: 1}
	if _, err := pim.Sweep(bench, opt, rc, nil, pim.MRAM()); err != nil {
		t.Fatal(err)
	}
	s := obs.Capture()
	if len(s.Counters) != 0 || len(s.Stages) != 0 {
		t.Errorf("disabled sweep recorded: %+v", s)
	}
}
