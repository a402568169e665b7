// Arena concurrency stress: one WearPlan — and therefore one scratch
// arena (internal/core/arena.go) — shared simultaneously by pim.Sweep,
// serve jobs and pim.BankStripe, all drawing counts buffers, engine
// scratch and job histograms from the same lock-guarded free lists.
// Every result is checksummed against a cold serial run on a
// private plan: a buffer handed to two jobs at once, or returned dirty
// where a zeroed buffer is expected, shows up as a checksum mismatch
// here (and as a data race under `make race`, which runs this file too).
package pimendure

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"pimendure/internal/serve"
	"pimendure/pim"
)

func TestArenaSharedAcrossSubsystems(t *testing.T) {
	opt := pim.Options{Lanes: 64, Rows: 256, PresetOutputs: true, NANDBasis: true}
	const bits = 16
	bench, err := pim.NewParallelMult(opt, bits)
	if err != nil {
		t.Fatal(err)
	}
	rc := pim.RunConfig{Iterations: 60, RecompileEvery: 7, Seed: 3}
	tech := pim.MRAM()
	bankCfg := pim.BankConfig{Org: pim.FlatOrganization(4), Policy: pim.RoundRobinBanks}

	// Cold references on private plans, computed serially.
	coldSweep, err := pim.Sweep(bench, opt, rc, nil, tech)
	if err != nil {
		t.Fatal(err)
	}
	sweepWant := map[string]string{}
	for _, r := range coldSweep {
		sweepWant[r.Strategy.Name()] = r.Dist.Checksum()
	}
	coldStripe, err := pim.BankStripe(bench, opt, rc, pim.StaticStrategy, tech, bankCfg)
	if err != nil {
		t.Fatal(err)
	}
	stripeWant := make([]string, len(coldStripe.Banks))
	for i, br := range coldStripe.Banks {
		if br.Result != nil {
			stripeWant[i] = br.Result.Dist.Checksum()
		}
	}

	// The shared plan: one cache feeds direct sweeps, bank stripes AND
	// the job server, so every leg below recycles the same arena.
	cache := pim.NewPlanCache(4)
	srv := serve.New(serve.Config{Workers: 2, Cache: cache})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	serveBody, err := json.Marshal(map[string]any{
		"benchmark": "mult", "bits": bits,
		"lanes": opt.Lanes, "rows": opt.Rows,
		"iterations": rc.Iterations, "recompile_every": rc.RecompileEvery,
		"seed": rc.Seed, "strategies": []string{"StxSt", "RaxRa", "RaxRa+Hw"},
	})
	if err != nil {
		t.Fatal(err)
	}

	runServeJob := func() error {
		resp, err := client.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(serveBody))
		if err != nil {
			return err
		}
		var accepted struct {
			Job string `json:"job"`
		}
		err = json.NewDecoder(resp.Body).Decode(&accepted)
		resp.Body.Close()
		if err != nil || accepted.Job == "" {
			return fmt.Errorf("submit: status %d err %v", resp.StatusCode, err)
		}
		for {
			resp, err := client.Get(ts.URL + "/jobs/" + accepted.Job)
			if err != nil {
				return err
			}
			var st struct {
				State  string           `json:"state"`
				Error  string           `json:"error"`
				Result *serve.JobResult `json:"result"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				return err
			}
			switch st.State {
			case "done":
				for _, sr := range st.Result.Strategies {
					if want := sweepWant[sr.Strategy]; sr.DistFNV != want {
						return fmt.Errorf("serve %s: dist fnv %s, cold run %s", sr.Strategy, sr.DistFNV, want)
					}
				}
				return nil
			case "failed", "canceled":
				return fmt.Errorf("job %s: %s", st.State, st.Error)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		// Force interleaving even on small machines: the arena lock and
		// the checksums are what is under test, not raw parallelism.
		workers = 4
	}
	const rounds = 3
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				switch w % 3 {
				case 0: // direct sweep on the shared plan
					results, _, err := cache.Sweep(bench, opt, rc, nil, tech)
					if err != nil {
						errs[w] = err
						return
					}
					for _, r := range results {
						if got, want := r.Dist.Checksum(), sweepWant[r.Strategy.Name()]; got != want {
							errs[w] = fmt.Errorf("sweep %s: dist fnv %s, cold run %s", r.Strategy.Name(), got, want)
							return
						}
						// Return the buffer mid-flight: reuse by a
						// concurrent job is exactly the churn under test.
						r.Dist.Release()
					}
				case 1: // bank striping on the shared plan
					res, _, err := cache.BankStripe(bench, opt, rc, pim.StaticStrategy, tech, bankCfg)
					if err != nil {
						errs[w] = err
						return
					}
					for i, br := range res.Banks {
						if br.Result == nil {
							continue
						}
						if got := br.Result.Dist.Checksum(); got != stripeWant[i] {
							errs[w] = fmt.Errorf("stripe bank %d: dist fnv %s, cold run %s", i, got, stripeWant[i])
							return
						}
						br.Result.Dist.Release()
					}
				case 2: // serve jobs against the same cache
					if err := runServeJob(); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}
