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
// an 18-configuration sweep equals the sum of the returned WriteDist
// totals, the epoch counters are self-consistent with the run
// parameters, and the stage timings cover one core.simulate per
// strategy. (Not parallel: the obs registry is process-wide.)
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

	var total uint64
	for _, r := range results {
		total += r.Dist.Total()
	}
	if got := m.Counters["core.writes"]; got != int64(total) {
		t.Errorf("manifest core.writes = %d, sum of WriteDist totals = %d", got, total)
	}

	// 23 iterations at recompile-every-7 is 4 epochs per strategy, 18
	// strategies. Each of the 9 +Hw runs replays its two epoch lengths (7
	// and 2) once and lands its other 2 epochs from those replays.
	if got := m.Counters["core.epochs"]; got != 18*4 {
		t.Errorf("manifest core.epochs = %d, want %d", got, 18*4)
	}
	replays, hits := m.Counters["core.hw.replays"], m.Counters["core.hw.memo_hits"]
	if replays != 9*2 || hits != 9*2 {
		t.Errorf("hw replays/memo hits = %d/%d, want %d/%d (one replay per epoch length and run, of %d hw epochs)",
			replays, hits, 9*2, 9*2, 9*4)
	}

	// Closed-cycle replay accounting: every +Hw epoch-iteration is either
	// replayed op-by-op (one recording pass per replay) or saved by the
	// shared replays and the closed-form accumulation. 9 +Hw strategies at
	// 23 iterations each is 207 epoch-iterations, 18 of them replayed.
	iters, saved := m.Counters["core.hw.replay_iters"], m.Counters["core.hw.replay_iters_saved"]
	if iters != 9*2 || saved != 9*23-9*2 {
		t.Errorf("replay_iters/replay_iters_saved = %d/%d, want %d/%d (of %d +Hw epoch-iterations)",
			iters, saved, 9*2, 9*23-9*2, 9*23)
	}

	// Software-engine memoization accounting: mult has only full-mask
	// writes, so its software epochs group by within map alone. An St
	// within map is one landing for all 4 epochs (3 strategies); Ra and Bs
	// within maps (96 rows, byte step) differ in every epoch (6
	// strategies × 4). That is 27 landings, and 9 of the 36 software
	// epochs fold.
	swGroups, swHits := m.Counters["core.sw.groups"], m.Counters["core.sw.memo_hits"]
	if swGroups != 27 || swHits != 9 {
		t.Errorf("sw groups/memo hits = %d/%d, want 27/9 (of %d software epochs)", swGroups, swHits, 9*4)
	}

	stages := map[string]obs.Stage{}
	for _, st := range m.Stages {
		stages[st.Name] = st
	}
	// One shared WearPlan serves the whole sweep: the plan-build stage
	// must have run exactly once for 18 core.simulate stages.
	if st := stages["core.simulate/plan"]; st.Count != 1 {
		t.Errorf("core.simulate/plan stage count = %d, want 1 (plan shared across the sweep)", st.Count)
	}
	if st := stages["core.simulate"]; st.Count != 18 {
		t.Errorf("core.simulate stage count = %d, want 18", st.Count)
	}
	if st := stages["pim.sweep"]; st.Count != 1 {
		t.Errorf("pim.sweep stage count = %d, want 1", st.Count)
	}
	if st := stages["pim.run"]; st.Count != 18 {
		t.Errorf("pim.run stage count = %d, want 18", st.Count)
	}
	if m.Counters["pim.runs"] != 18 || m.Counters["pim.sweeps"] != 1 {
		t.Errorf("pim counters wrong: runs=%d sweeps=%d",
			m.Counters["pim.runs"], m.Counters["pim.sweeps"])
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
