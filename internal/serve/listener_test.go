package serve

import (
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"

	"pimendure/internal/obs"
	"pimendure/pim"
)

// The composed -serve listener, as cmd/pimserve builds it: a Server as the
// obs.Run's Handler. A /run naming no strategy runs the St×St baseline,
// bit-identical to a cold pim.Run; the telemetry endpoints and pprof
// answer next to the job API; a closed Server answers 503 until Finish
// closes the listener.
func TestServeBehindRun(t *testing.T) {
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	run := obs.NewRun("servetest", fs)
	if err := fs.Parse([]string{"-serve", "localhost:0", "-trace=false", "-events=false"}); err != nil {
		t.Fatal(err)
	}
	run.Handler = srv
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	base := "http://" + run.ServeBound()
	client := &http.Client{}

	code, out := postJSON(t, client, base+"/run", smallSweep())
	if code != http.StatusAccepted {
		t.Fatalf("POST /run: status %d body %v", code, out)
	}
	st := pollDone(t, client, base, out["job"].(string))
	if st.State != "done" {
		t.Fatalf("run job state %q (err %q)", st.State, st.Error)
	}
	if len(st.Result.Strategies) != 1 || st.Result.Strategies[0].Strategy != "StxSt" {
		t.Fatalf("run result rows %v, want exactly StxSt", st.Result.Strategies)
	}
	opt := pim.Options{Lanes: 16, Rows: 512, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewParallelMult(opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pim.Run(bench, opt, pim.RunConfig{Iterations: 300, RecompileEvery: 50, Seed: 7},
		pim.StaticStrategy, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Result.Strategies[0].DistFNV; got != want.Dist.Checksum() {
		t.Errorf("served default /run dist %s, cold pim.Run %s", got, want.Dist.Checksum())
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "# TYPE serve_jobs_accepted ") {
		t.Errorf("/metrics = %d, lacks the serve_jobs_accepted family", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", code)
	}
	if code, body := get("/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q, want ok", code, body)
	}

	srv.Close()
	if code, out := postJSON(t, client, base+"/run", smallSweep()); code != http.StatusServiceUnavailable {
		t.Errorf("POST /run after Close: status %d body %v, want 503", code, out)
	}
	if err := run.Finish(t.TempDir(), nil, 0, io.Discard); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections()
	if resp, err := client.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("listener still serving after Finish")
	}
}
