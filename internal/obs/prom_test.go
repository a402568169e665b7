package obs_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"pimendure/internal/obs"
)

// contractLines renders the exposition and keeps the families named
// pin_*, masking the wall-clock values of the pin.stage timer: its
// _sum, its finite le buckets (collapsed to one line, since how many
// buckets the spans spread over depends on the clock) and its
// _max_seconds sample.
func contractLines(t *testing.T) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		name := line
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			name = f[2]
		}
		if !strings.HasPrefix(name, "pin_") {
			continue
		}
		switch {
		case strings.HasPrefix(line, `pin_stage_seconds_bucket{le="`) && !strings.Contains(line, `"+Inf"`):
			line = `pin_stage_seconds_bucket{le=MASKED} MASKED`
		case strings.HasPrefix(line, "pin_stage_seconds_sum "):
			line = "pin_stage_seconds_sum MASKED"
		case strings.HasPrefix(line, "pin_stage_max_seconds "):
			line = "pin_stage_max_seconds MASKED"
		}
		if len(out) > 0 && out[len(out)-1] == line {
			continue
		}
		out = append(out, line)
	}
	return out
}

// The /metrics exposition and the Capture snapshot are a contract: the
// promlint gate, dashboards and the bench module read them by name. Fixed
// values recorded into one metric of each kind must export exactly these
// families, and Capture must list stages apart from histograms, with
// duration histograms under their bare registry names.
func TestExpositionContract(t *testing.T) {
	withObs(t, func() {
		obs.GetCounter("pin.count").Add(5)
		obs.GetGauge("pin.level").Observe(12)
		raw := obs.GetHistogram("pin.bytes")
		for _, v := range []int64{0, 1, 3, 100, 100} {
			raw.Observe(v)
		}
		wait := obs.GetDurationHistogram("pin.wait")
		wait.ObserveDuration(time.Second)
		wait.ObserveDuration(1500 * time.Nanosecond)
		const spans = 3
		for i := 0; i < spans; i++ {
			sp := obs.StartSpan("pin.stage")
			time.Sleep(10 * time.Microsecond)
			sp.End()
		}

		want := []string{
			"# HELP pin_bytes pin.bytes (histogram)",
			"# TYPE pin_bytes histogram",
			`pin_bytes_bucket{le="0"} 1`,
			`pin_bytes_bucket{le="1"} 2`,
			`pin_bytes_bucket{le="3"} 3`,
			`pin_bytes_bucket{le="127"} 5`,
			`pin_bytes_bucket{le="+Inf"} 5`,
			"pin_bytes_sum 204",
			"pin_bytes_count 5",
			"# HELP pin_count pin.count (counter)",
			"# TYPE pin_count counter",
			"pin_count 5",
			"# HELP pin_level pin.level (max watermark gauge)",
			"# TYPE pin_level gauge",
			"pin_level 12",
			"# HELP pin_stage_max_seconds pin.stage longest single span (timer)",
			"# TYPE pin_stage_max_seconds gauge",
			"pin_stage_max_seconds MASKED",
			"# HELP pin_stage_seconds pin.stage span duration (timer histogram)",
			"# TYPE pin_stage_seconds histogram",
			"pin_stage_seconds_bucket{le=MASKED} MASKED",
			`pin_stage_seconds_bucket{le="+Inf"} 3`,
			"pin_stage_seconds_sum MASKED",
			"pin_stage_seconds_count 3",
			"# HELP pin_wait_seconds pin.wait (histogram)",
			"# TYPE pin_wait_seconds histogram",
			`pin_wait_seconds_bucket{le="2.047e-06"} 1`,
			`pin_wait_seconds_bucket{le="1.073741823"} 2`,
			`pin_wait_seconds_bucket{le="+Inf"} 2`,
			"pin_wait_seconds_sum 1.0000015",
			"pin_wait_seconds_count 2",
		}
		if got := contractLines(t); !reflect.DeepEqual(got, want) {
			t.Errorf("exposition of the pin_* families:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}

		s := obs.Capture()
		if s.Counters["pin.count"] != 5 || s.Gauges["pin.level"] != 12 {
			t.Errorf("Capture counters/gauges: pin.count=%d pin.level=%d, want 5 and 12", s.Counters["pin.count"], s.Gauges["pin.level"])
		}
		var stage *obs.Stage
		for i, st := range s.Stages {
			switch st.Name {
			case "pin.stage":
				stage = &s.Stages[i]
			case "pin.bytes", "pin.wait":
				t.Errorf("histogram %s listed among the stages", st.Name)
			}
		}
		if stage == nil {
			t.Fatalf("Capture().Stages lacks pin.stage: %+v", s.Stages)
		}
		if stage.Count != spans || stage.Seconds <= 0 || stage.MaxSeconds <= 0 || stage.MaxSeconds > stage.Seconds {
			t.Errorf("stage pin.stage = %+v, want %d spans with 0 < max ≤ total", *stage, spans)
		}
		hists := map[string]obs.HistogramSnapshot{}
		for _, h := range s.Histograms {
			if strings.HasPrefix(h.Name, "pin.") {
				hists[h.Name] = h
			}
		}
		wantHists := map[string]obs.HistogramSnapshot{
			"pin.bytes": {Name: "pin.bytes", Count: 5, Sum: 204, Buckets: []obs.HistogramBucket{
				{LE: 0, Count: 1}, {LE: 1, Count: 1}, {LE: 3, Count: 1}, {LE: 127, Count: 2},
			}},
			"pin.wait": {Name: "pin.wait", Count: 2, Sum: wait.Sum(), Buckets: []obs.HistogramBucket{
				{LE: 2047e-9, Count: 1}, {LE: 1073741823e-9, Count: 1},
			}},
		}
		if !reflect.DeepEqual(hists, wantHists) {
			t.Errorf("Capture().Histograms pin.* = %+v\nwant %+v", hists, wantHists)
		}
		if wait.Sum() != 1.0000015 {
			t.Errorf("pin.wait sum = %v, want 1.0000015 seconds", wait.Sum())
		}
	})
}
