package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Series is a named, append-only time series with fixed columns — the
// telemetry shape behind per-epoch wear trajectories. Unlike counters
// and spans it is not gated on the enabled flag: a series only exists
// because a caller explicitly asked for sampling, so every Add records.
// A series may carry a heatmap renderer (SetPNG), served at
// /wear.png?name=<series> for as long as the series is registered.
// All methods are safe for concurrent use.
type Series struct {
	name string
	cols []string

	mu      sync.Mutex
	samples [][]float64
	png     func(io.Writer) error
}

// seriesRegistry holds every live series so the /series endpoint and
// Run.Finish can export them without threading handles through the CLIs.
var seriesRegistry = struct {
	mu     sync.Mutex
	byName map[string]*Series
}{byName: map[string]*Series{}}

// NewSeries creates and registers a series with the given column names.
// A name already held by a live series is made unique with a "#2",
// "#3", … suffix instead of replacing the registration: the old
// behavior silently clobbered a concurrent run's trajectory (two
// concurrent runs of the same benchmark interleaved one series and
// orphaned the other's handle — exactly what concurrent sweep-server
// requests do). Callers that need the registered name must read it back
// with Name(). Use RemoveSeries to retire a name when its run is done.
func NewSeries(name string, cols ...string) *Series {
	seriesRegistry.mu.Lock()
	defer seriesRegistry.mu.Unlock()
	unique := name
	for n := 2; ; n++ {
		if _, taken := seriesRegistry.byName[unique]; !taken {
			break
		}
		unique = fmt.Sprintf("%s#%d", name, n)
	}
	s := &Series{name: unique, cols: append([]string(nil), cols...)}
	seriesRegistry.byName[unique] = s
	return s
}

// RemoveSeries unregisters the named series, freeing the name for
// reuse. The handle itself stays usable; it is just no longer exported
// by AllSeries (/series, /wear.png, Run.Finish artifacts). Serving
// layers call it when a job's per-request telemetry is folded into the
// job result.
func RemoveSeries(name string) {
	seriesRegistry.mu.Lock()
	delete(seriesRegistry.byName, name)
	seriesRegistry.mu.Unlock()
}

// FindSeries returns the registered series with the given name, or nil
// when no live series holds it (never registered, or already retired by
// RemoveSeries) — the lookup behind /series?name=, which turns the nil
// into a clean JSON 404 instead of an empty-array 200.
func FindSeries(name string) *Series {
	seriesRegistry.mu.Lock()
	defer seriesRegistry.mu.Unlock()
	return seriesRegistry.byName[name]
}

// AllSeries returns the registered series sorted by name.
func AllSeries() []*Series {
	seriesRegistry.mu.Lock()
	out := make([]*Series, 0, len(seriesRegistry.byName))
	for _, s := range seriesRegistry.byName {
		out = append(out, s)
	}
	seriesRegistry.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// resetSeries empties the registry (called from Reset; the Series
// handles themselves stay usable but are no longer exported).
func resetSeries() {
	seriesRegistry.mu.Lock()
	seriesRegistry.byName = map[string]*Series{}
	seriesRegistry.mu.Unlock()
}

// Name returns the series' registry name.
func (s *Series) Name() string { return s.name }

// Columns returns the column names.
func (s *Series) Columns() []string { return append([]string(nil), s.cols...) }

// SetPNG attaches the renderer behind /wear.png?name=<series> — the wear
// sampler attaches its heatmap snapshot. obs itself stays free of image
// and stats dependencies. A nil fn detaches it.
func (s *Series) SetPNG(fn func(io.Writer) error) {
	s.mu.Lock()
	s.png = fn
	s.mu.Unlock()
}

// WritePNG renders the series' heatmap to w, erroring when no renderer
// is attached.
func (s *Series) WritePNG(w io.Writer) error {
	fn := s.renderer()
	if fn == nil {
		return fmt.Errorf("obs: series %q has no heatmap", s.name)
	}
	return fn(w)
}

func (s *Series) renderer() func(io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.png
}

// heatmapSeries resolves a /wear.png request: the named series if it
// carries a heatmap, or for an empty name the smallest-named series that
// does (so a sweep's live view doesn't depend on registration order).
// It returns nil when no registered series matches.
func heatmapSeries(name string) *Series {
	if name != "" {
		if s := FindSeries(name); s != nil && s.renderer() != nil {
			return s
		}
		return nil
	}
	for _, s := range AllSeries() {
		if s.renderer() != nil {
			return s
		}
	}
	return nil
}

// Add appends one sample. The value count must match the column count.
func (s *Series) Add(vals ...float64) {
	if len(vals) != len(s.cols) {
		panic(fmt.Sprintf("obs: series %q: %d values for %d columns", s.name, len(vals), len(s.cols)))
	}
	row := append([]float64(nil), vals...)
	s.mu.Lock()
	s.samples = append(s.samples, row)
	s.mu.Unlock()
}

// Len returns the number of samples recorded so far.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Last returns a copy of the most recent sample, or nil when empty.
func (s *Series) Last() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return nil
	}
	return append([]float64(nil), s.samples[len(s.samples)-1]...)
}

// Samples returns a copy of all samples in record order.
func (s *Series) Samples() [][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]float64, len(s.samples))
	for i, row := range s.samples {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// Column returns a copy of one column's values by name, or nil when the
// column does not exist.
func (s *Series) Column(name string) []float64 {
	idx := -1
	for i, c := range s.cols {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.samples))
	for i, row := range s.samples {
		out[i] = row[idx]
	}
	return out
}

// WriteCSV writes the series as CSV with a header row.
func (s *Series) WriteCSV(w io.Writer) error {
	for i, c := range s.cols {
		sep := ","
		if i == len(s.cols)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", c, sep); err != nil {
			return err
		}
	}
	for _, row := range s.Samples() {
		for i, v := range row {
			sep := ","
			if i == len(row)-1 {
				sep = "\n"
			}
			if _, err := fmt.Fprintf(w, "%g%s", v, sep); err != nil {
				return err
			}
		}
	}
	return nil
}

// jsonFloat marshals non-finite values as null. Wear trajectories
// legitimately contain NaN (the CoV of an all-zero distribution, a
// projection without an endurance) and encoding/json rejects NaN/Inf
// outright — which used to abort the whole /series response and the
// series_*.json artifact write mid-run.
type jsonFloat float64

// MarshalJSON encodes the value, mapping NaN and ±Inf to null.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// seriesJSON is the exported JSON shape of one series.
type seriesJSON struct {
	Name    string        `json:"name"`
	Columns []string      `json:"columns"`
	Samples [][]jsonFloat `json:"samples"`
}

// MarshalJSON exports the series as {name, columns, samples}, with
// non-finite sample values encoded as null.
func (s *Series) MarshalJSON() ([]byte, error) {
	rows := s.Samples()
	samples := make([][]jsonFloat, len(rows))
	for i, row := range rows {
		conv := make([]jsonFloat, len(row))
		for j, v := range row {
			conv[j] = jsonFloat(v)
		}
		samples[i] = conv
	}
	return json.Marshal(seriesJSON{Name: s.name, Columns: s.Columns(), Samples: samples})
}

// WriteSeriesJSON writes every registered series as one JSON array —
// the /series endpoint's payload and the series_*.json artifact shape.
func WriteSeriesJSON(w io.Writer) error {
	all := AllSeries()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(all)
}
