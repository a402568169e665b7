package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestArrivalsArePureFunctionOfSeed(t *testing.T) {
	a := arrivals(7, 1, 95, 2*time.Second)
	b := arrivals(7, 1, 95, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from the same seed differ")
	}
	if len(a) != 190 {
		t.Fatalf("got %d arrivals, want rate×duration = 190", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At || a[i].At >= 2*time.Second {
			t.Fatalf("arrival %d at %v is out of order or outside the phase", i, a[i].At)
		}
	}
	c := arrivals(8, 1, 95, 2*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("schedules from different seeds are identical")
	}
	// Another seed reorders the same requests.
	count := func(reqs []plannedReq) map[string]int {
		m := map[string]int{}
		for _, p := range reqs {
			p.At = 0
			key, _ := json.Marshal(p)
			m[string(key)]++
		}
		return m
	}
	if !reflect.DeepEqual(count(a), count(c)) {
		t.Fatal("seeds 7 and 8 serve different multisets of requests")
	}
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		level float64
		ok    bool
	}{
		{10000, 0.999, true},
		{1000, 0.99, true},
		{999, 0.95, true},
		{100, 0.9, true},
		{99, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		level, value, ok := tail(sorted)
		if ok != tc.ok || level != tc.level {
			t.Errorf("n=%d: level %v ok %v, want %v %v", tc.n, level, ok, tc.level, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, v := range sorted {
			if v > value {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %d samples beyond p%v, want at least 10", tc.n, beyond, 100*level)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) and ([3, 1, 2], n=4).
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("got %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "pass", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms}, // overlaps a
		{Name: "leaf", Parent: 1, Start: 15 * ms, End: 20 * ms},
		{Name: "a", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{Name: "other", Parent: -1, Start: 0, End: 5 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 5 * ms, 30 * ms, 5 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	ids := subtree(spans, 0)
	if !reflect.DeepEqual(ids, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("subtree %v, want [0 1 2 3 4]", ids)
	}
	layers := layerTotals(spans, self, ids)
	if a := layers.get("a"); a.Count != 2 || math.Abs(a.SelfS-0.055) > 1e-12 || math.Abs(a.Frac-55.0/130) > 1e-12 {
		t.Errorf("layer a: %+v", a)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u string) {
		if !name.MatchString(n) {
			t.Errorf("%s metric %q is outside the name alphabet", kind, n)
		}
		if !unit.MatchString(u) {
			t.Errorf("%s metric %q has unit %q outside the unit alphabet", kind, n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range bf.Workloads {
		check("workload", w.Name, "x")
	}
	var wl []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", wl, workloadNames)
	}
	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code emits %d", len(bf.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bf.EndToEnd {
		d := e2eMetrics[i]
		check("end-to-end", m.Name, m.Unit)
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		// Set-up time has the largest bound, so that work moved into
		// set-up shows in no other metric first.
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > bf.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v above setup_s's %v", m.Name, m.Bound, bf.EndToEnd[0].Bound)
		}
	}
	if e := bf.EndToEnd[0]; e.Name != "setup_s" || e.Unit != "s" || e.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", e)
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code emits %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		check("per-layer", m.Name, m.Unit)
		if d := layerMetrics[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), code %s (%s)", i, m.Name, m.Unit, d.Name, d.Unit)
		}
	}
}

func TestOverloadedPhaseReportsFiniteJSON(t *testing.T) {
	start := time.Now()
	ph := &phaseResult{rate: 140, end: start.Add(time.Second), deadline: start.Add(6 * time.Second)}
	for i := 0; i < 40; i++ {
		o := jobOutcome{req: plannedReq{Kind: "sweep"}, sched: start.Add(time.Duration(i) * 20 * time.Millisecond)}
		switch i % 4 {
		case 0:
			o.status, o.id, o.state = http.StatusAccepted, "j", "done"
			o.latency, o.done = 3*time.Millisecond, o.sched.Add(3*time.Millisecond)
		case 1:
			o.status = http.StatusTooManyRequests
		case 2:
			o.status, o.id, o.gaveUp = http.StatusAccepted, "j", true
		case 3:
			o.status, o.id, o.state = http.StatusAccepted, "j", "failed"
		}
		ph.outcomes = append(ph.outcomes, o)
		ph.late = append(ph.late, 0.1)
	}
	r := serveRun{phases: []*phaseResult{ph, ph, ph}}
	params := map[string]any{}
	r.report(params)
	v := zeroLayerValues()
	clientLayers(v, ph)
	for name, x := range v {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			t.Errorf("%s = %v", name, x)
		}
	}
	if _, err := json.Marshal(map[string]any{"params": params, "values": v}); err != nil {
		t.Fatal(err)
	}
	if _, tl := ph.tailMS(); tl < 1000 {
		t.Errorf("tail %v ms: requests that were not done must count as waiting until the deadline", tl)
	}
	if r.maxRate() != 0 {
		t.Errorf("max rate %v, want 0 for a phase with 75%% of requests not done", r.maxRate())
	}
	if v["serve.shed_frac"] != 0.25 || v["serve.unfinished_frac"] != 0.25 {
		t.Errorf("shed %v, unfinished %v, want 0.25 each", v["serve.shed_frac"], v["serve.unfinished_frac"])
	}
	unserved, failed := 0, 0
	for i := range ph.outcomes {
		o := &ph.outcomes[i]
		switch {
		case o.ok():
		case o.unserved():
			unserved++
		default:
			failed++
		}
	}
	if unserved != 20 || failed != 10 {
		t.Errorf("unserved %d, failed %d, want 20 and 10: only the failed jobs are wrong results", unserved, failed)
	}
}

func TestServeMixSmoke(t *testing.T) {
	st, err := serveSetup(nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	ph := runOpen(st.c, 3, []float64{40}, []time.Duration{500 * time.Millisecond}, []int{1}, nil)[0]
	if len(ph.outcomes) != 20 {
		t.Fatalf("sent %d requests, want 20", len(ph.outcomes))
	}
	for _, o := range ph.outcomes {
		if !o.ok() {
			t.Errorf("%s request: state %q, %s", o.req.Kind, o.state, o.err)
		}
	}
	for _, err := range checkServed(st, ph.outcomes, 3) {
		t.Error(err)
	}
	v := zeroLayerValues()
	clientLayers(v, ph)
	if v["serve.jobs"] != 20 || v["serve.polls_per_job"] < 1 {
		t.Errorf("client layers: jobs %v, polls per job %v", v["serve.jobs"], v["serve.polls_per_job"])
	}
}
