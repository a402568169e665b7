package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pimendure/pim"
)

// smallFleet is smallSweep plus a fleet-survival shape: two strategies,
// two technologies, two σ values, 20k devices per point.
func smallFleet() map[string]any {
	m := smallSweep()
	m["strategies"] = []string{"StxSt", "RaxRa+Hw"}
	m["technologies"] = []string{"MRAM", "RRAM"}
	m["sigmas"] = []float64{0.3, 0.6}
	m["devices"] = 20000
	return m
}

func submitFleet(t *testing.T, client *http.Client, base string, body map[string]any) string {
	t.Helper()
	code, out := postJSON(t, client, base+"/fleet", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit fleet: status %d, body %v", code, out)
	}
	id, _ := out["job"].(string)
	if id == "" {
		t.Fatalf("submit fleet: no job id in %v", out)
	}
	return id
}

// A served fleet study must be bit-identical to a direct pim.Fleet call,
// and a second identical request must reuse the cached WearPlan and
// reproduce the rows exactly.
func TestFleetEndToEndBitIdentical(t *testing.T) {
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
	strategies := []pim.Strategy{
		pim.StaticStrategy,
		{Within: pim.Random, Between: pim.Random, Hw: true},
	}
	techs := []pim.Technology{pim.MRAM(), pim.RRAM()}
	// The server threads the request seed into both the simulator and
	// the fleet draws, so the cold call must match it.
	fc := pim.FleetConfig{Devices: 20000, Sigmas: []float64{0.3, 0.6}, Seed: rc.Seed}
	cold, err := pim.Fleet(bench, opt, rc, strategies, techs, fc)
	if err != nil {
		t.Fatal(err)
	}

	first := pollDone(t, ts.Client(), ts.URL, submitFleet(t, ts.Client(), ts.URL, smallFleet()))
	if first.State != "done" {
		t.Fatalf("first fleet job state %q (err %q)", first.State, first.Error)
	}
	if first.Result == nil || len(first.Result.Fleet) != len(cold) {
		t.Fatalf("first fleet job returned %d rows, want %d", len(first.Result.Fleet), len(cold))
	}
	if len(first.Result.Strategies) != 0 {
		t.Error("fleet job carries per-strategy sweep rows")
	}
	for i, p := range cold {
		row := first.Result.Fleet[i]
		if row.Strategy != p.Strategy.Name() || row.Technology != p.Technology.Name || row.Sigma != p.Sigma {
			t.Fatalf("row %d is %s/%s/σ=%v, want %s/%s/σ=%v", i,
				row.Strategy, row.Technology, row.Sigma, p.Strategy.Name(), p.Technology.Name, p.Sigma)
		}
		if row.MeanIterations != p.MeanIterations ||
			row.B1Iterations != p.Quantiles[0] ||
			row.B10Iterations != p.Quantiles[1] ||
			row.B50Iterations != p.Quantiles[2] ||
			row.DeterministicIterations != p.DeterministicIterations {
			t.Errorf("row %d differs from cold pim.Fleet", i)
		}
		if row.Groups != p.Groups || row.Cells != p.Cells || row.Devices != p.Devices {
			t.Errorf("row %d population/collapse differs from cold pim.Fleet", i)
		}
		if row.B1Seconds != p.Seconds(p.Quantiles[0]) {
			t.Errorf("row %d seconds conversion differs", i)
		}
	}

	second := pollDone(t, ts.Client(), ts.URL, submitFleet(t, ts.Client(), ts.URL, smallFleet()))
	if second.State != "done" {
		t.Fatalf("second fleet job state %q (err %q)", second.State, second.Error)
	}
	if !second.Result.CacheHit {
		t.Error("second identical fleet request missed the plan cache")
	}
	for i := range first.Result.Fleet {
		if first.Result.Fleet[i] != second.Result.Fleet[i] {
			t.Errorf("row %d differs between cached and cold fleet jobs", i)
		}
	}
}

// Admission control: over-cap populations, negative sigmas, too many
// sigmas and unknown technologies are rejected with 400 before any
// compute is spent.
func TestFleetAdmission(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxDevices: 50_000})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// One more name than each set holds: 19 strategies, 5 technologies.
	tooManyStrategies := make([]string, maxStrategies+1)
	for i := range tooManyStrategies {
		tooManyStrategies[i] = "StxSt"
	}
	tooManyTechs := make([]string, maxTechnologies+1)
	for i := range tooManyTechs {
		tooManyTechs[i] = "MRAM"
	}
	for name, c := range map[string]struct {
		path   string
		mutate func(map[string]any)
		cap    string // the cap the error must name, if any
	}{
		"over-cap devices": {"/fleet", func(m map[string]any) { m["devices"] = 50_001 }, ""},
		"negative sigma":   {"/fleet", func(m map[string]any) { m["sigmas"] = []float64{-0.1} }, ""},
		"too many sigmas": {"/fleet", func(m map[string]any) {
			m["sigmas"] = make([]float64, maxFleetSigmas+1)
		}, ""},
		"unknown technology":    {"/fleet", func(m map[string]any) { m["technologies"] = []string{"SRAM"} }, ""},
		"too many strategies":   {"/fleet", func(m map[string]any) { m["strategies"] = tooManyStrategies }, "cap 18"},
		"too many technologies": {"/fleet", func(m map[string]any) { m["technologies"] = tooManyTechs }, "cap 4"},
		"sweep, too many strategies": {"/sweep", func(m map[string]any) {
			delete(m, "technologies")
			m["strategies"] = tooManyStrategies
		}, "cap 18"},
	} {
		body := smallFleet()
		c.mutate(body)
		code, out := postJSON(t, ts.Client(), ts.URL+c.path, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (body %v), want 400", name, code, out)
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, c.cap) {
			t.Errorf("%s: error %q does not name the %s", name, msg, c.cap)
		}
	}

	// The defaulted request stays admissible under the cap.
	body := smallFleet()
	delete(body, "devices")
	body["devices"] = 10_000
	if code, out := postJSON(t, ts.Client(), ts.URL+"/fleet", body); code != http.StatusAccepted {
		t.Fatalf("in-cap fleet request rejected: %d %v", code, out)
	}
}
