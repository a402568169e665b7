package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// metric is one registry entry: a Counter, Gauge, Histogram or stage
// timer. Capture and WritePrometheus switch on the concrete kind.
type metric interface {
	// kind names the metric kind in the registry's name-clash panic.
	kind() string
	// reset zeroes the recorded values; the registration survives.
	reset()
}

// registry is the process-wide home of every metric, one name→metric
// map for all kinds. Lookup/creation takes the mutex; the recording fast
// paths touch only the returned struct's atomics.
var registry = struct {
	mu      sync.Mutex
	metrics map[string]metric
}{metrics: map[string]metric{}}

// register returns the metric registered under name, creating it with
// mk on first use. A name already held by a different kind panics:
// without the guard a counter and a gauge sharing one name would
// silently diverge into two manifest entries; the registry refuses
// instead, loudly, at registration time.
func register[M metric](name string, mk func() M) M {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	prev, ok := registry.metrics[name]
	if !ok {
		m := mk()
		registry.metrics[name] = m
		return m
	}
	m, same := prev.(M)
	if !same {
		panic(fmt.Sprintf("obs: metric name %q already registered as a %s, cannot re-register as a %s", name, prev.kind(), mk().kind()))
	}
	return m
}

// GetCounter returns the process-wide counter with the given name,
// creating and registering it on first use. Typically called once at
// package init and kept in a var. Registering a name already held by
// another kind panics.
func GetCounter(name string) *Counter {
	return register(name, func() *Counter { return &Counter{name: name} })
}

// GetGauge returns the process-wide max-watermark gauge with the given
// name, creating it on first use. Registering a name already held by
// another kind panics.
func GetGauge(name string) *Gauge {
	return register(name, func() *Gauge { return &Gauge{name: name} })
}

// GetHistogram returns the process-wide raw-value histogram with the
// given name (scale 1: sizes, counts), creating and registering it on
// first use. Registering a name already held by another kind panics.
func GetHistogram(name string) *Histogram {
	return register(name, func() *Histogram { return &Histogram{name: name, scale: 1} })
}

// GetDurationHistogram returns the process-wide duration histogram with
// the given name: values are recorded in nanoseconds (ObserveDuration)
// and exported in seconds. The exposition family is "<name>_seconds".
func GetDurationHistogram(name string) *Histogram {
	return register(name, func() *Histogram { return &Histogram{name: name, scale: 1e-9} })
}

// getTimer returns the stage timer with the given name, creating it on
// first use. Timers are reached through StartSpan rather than directly.
func getTimer(name string) *timer {
	return register(name, func() *timer { return &timer{hist: Histogram{name: name, scale: 1e-9}} })
}

// Reset zeroes every registered metric and empties the series registry
// and the event log (the metric registrations themselves survive, so
// package-level handles stay valid). Tests and benchmark harnesses use
// it to isolate measurement regions; CLIs never need it.
func Reset() {
	registry.mu.Lock()
	for _, m := range registry.metrics {
		m.reset()
	}
	registry.mu.Unlock()
	resetSeries()
	resetLog()
}

// Stage is one named timer's totals inside a Snapshot or Manifest:
// how many spans completed under the name, their summed wall time, and
// the longest single span (the outlier watermark).
type Stage struct {
	Name       string  `json:"name"`
	Count      int64   `json:"count"`
	Seconds    float64 `json:"seconds"`
	MaxSeconds float64 `json:"max_seconds,omitempty"`
}

// Snapshot is a point-in-time copy of the whole registry, safe to use
// after further recording continues.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]int64    `json:"gauges,omitempty"`
	Stages     []Stage             `json:"stages,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Capture snapshots every registered metric. Zero-valued entries are
// omitted so a snapshot reflects what the run actually exercised. Stage
// timers are listed as Stages, apart from the histograms; stages are
// sorted by name, which groups nested "parent/child" stages under their
// parent.
func Capture() Snapshot {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}}
	for name, m := range registry.metrics {
		switch m := m.(type) {
		case *Counter:
			if v := m.Value(); v != 0 {
				s.Counters[name] = v
			}
		case *Gauge:
			if v := m.Value(); v != 0 {
				s.Gauges[name] = v
			}
		case *timer:
			if n := m.hist.Count(); n != 0 {
				s.Stages = append(s.Stages, Stage{
					Name:       name,
					Count:      n,
					Seconds:    m.hist.Sum(),
					MaxSeconds: time.Duration(m.max.Value()).Seconds(),
				})
			}
		case *Histogram:
			if m.Count() != 0 {
				s.Histograms = append(s.Histograms, m.Snapshot())
			}
		}
	}
	sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].Name < s.Stages[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteTable renders the current registry state as an aligned text
// table — the output behind every CLI's -metrics flag.
func WriteTable(w io.Writer) error {
	s := Capture()
	if len(s.Stages) > 0 {
		if _, err := fmt.Fprintf(w, "%-40s %10s %14s %14s\n", "stage", "spans", "total", "max span"); err != nil {
			return err
		}
		for _, st := range s.Stages {
			d := time.Duration(st.Seconds * float64(time.Second)).Round(time.Microsecond)
			m := time.Duration(st.MaxSeconds * float64(time.Second)).Round(time.Microsecond)
			if _, err := fmt.Fprintf(w, "%-40s %10d %14s %14s\n", st.Name, st.Count, d, m); err != nil {
				return err
			}
		}
	}
	if len(s.Histograms) > 0 {
		if _, err := fmt.Fprintf(w, "%-40s %10s %14s %14s %14s\n", "histogram", "count", "sum", "p50", "p99"); err != nil {
			return err
		}
		for _, h := range s.Histograms {
			if _, err := fmt.Fprintf(w, "%-40s %10d %14g %14g %14g\n",
				h.Name, h.Count, h.Sum, h.Quantile(0.50), h.Quantile(0.99)); err != nil {
				return err
			}
		}
	}
	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for name := range s.Counters {
		names = append(names, name)
	}
	for name := range s.Gauges {
		names = append(names, name+" (max)")
	}
	sort.Strings(names)
	if len(names) > 0 {
		if _, err := fmt.Fprintf(w, "%-40s %10s\n", "counter", "value"); err != nil {
			return err
		}
	}
	for _, name := range names {
		v, ok := s.Counters[name]
		if !ok {
			v = s.Gauges[name[:len(name)-len(" (max)")]]
		}
		if _, err := fmt.Fprintf(w, "%-40s %10d\n", name, v); err != nil {
			return err
		}
	}
	return nil
}
