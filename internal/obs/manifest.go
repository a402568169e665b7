package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Manifest is the machine-readable record of one CLI run: what was
// computed (command, config, seed), in what environment (git describe,
// Go version, CPU count), and what it cost (wall time, per-stage
// timings, counter totals). Every CLI writes one to
// <out>/manifest_<cmd>.json so an artifact directory documents the run
// that produced it — the reproducibility practice the simulation-
// infrastructure literature asks of PIM studies.
type Manifest struct {
	// Command is the CLI name; it also names the output file.
	Command string `json:"command"`
	// Args is os.Args[1:] as invoked.
	Args []string `json:"args,omitempty"`
	// Config is the CLI's resolved configuration (flag values after
	// defaulting), keyed by flag name.
	Config map[string]any `json:"config,omitempty"`
	// Seed is the run's random seed (0 when the command has none).
	Seed int64 `json:"seed"`
	// GitDescribe identifies the source tree ("git describe
	// --always --dirty"; empty when git or the repo is unavailable).
	GitDescribe string `json:"git_describe,omitempty"`
	// GoVersion and NumCPU describe the execution environment.
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// Start and End bound the run; WallSeconds is their difference.
	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	WallSeconds float64   `json:"wall_seconds"`
	// Stages, Counters, Gauges and Histograms are the observability
	// snapshot at Finish time: per-stage span timings, counter/watermark
	// totals, and log-bucketed distribution snapshots (request latency,
	// queue wait).
	Stages     []Stage             `json:"stages,omitempty"`
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]int64    `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	// Events summarizes the span-event ring (recorded/dropped/capacity)
	// when event recording was on during the run; Log does the same for
	// the structured JSONL event log.
	Events *RingStats `json:"events,omitempty"`
	Log    *RingStats `json:"log,omitempty"`
}

// NewManifest starts a manifest for the named command, stamping the
// start time, invocation arguments and environment.
func NewManifest(cmd string) *Manifest {
	return &Manifest{
		Command:     cmd,
		Args:        os.Args[1:],
		GitDescribe: gitDescribe(),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Start:       time.Now(),
	}
}

// Finish stamps the end time and folds in the current observability
// snapshot. Call it once, after the run's work is done.
func (m *Manifest) Finish() {
	m.End = time.Now()
	m.WallSeconds = m.End.Sub(m.Start).Seconds()
	s := Capture()
	m.Stages, m.Counters, m.Gauges, m.Histograms = s.Stages, s.Counters, s.Gauges, s.Histograms
	if es := CaptureEventStats(); es.Recorded > 0 {
		m.Events = &es
	}
	if ls := CaptureLogStats(); ls.Recorded > 0 {
		m.Log = &ls
	}
}

// Path returns the file the manifest lands in under dir:
// dir/manifest_<cmd>.json.
func (m *Manifest) Path(dir string) string {
	return filepath.Join(dir, "manifest_"+m.Command+".json")
}

// WriteFile writes the manifest to Path(dir), creating dir if needed.
func (m *Manifest) WriteFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(m.Path(dir), append(data, '\n'), 0o644)
}

// ReadManifest reads back a manifest written by WriteFile.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	return &m, nil
}

// gitDescribe identifies the working tree, tolerating environments
// without git or outside a repository (empty string).
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
