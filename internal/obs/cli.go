package obs

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
)

// Run bundles the observability lifecycle every CLI shares: the
// -metrics, -serve, -trace and -events flags, enabling the layer (and
// the span-event ring and structured log) for the process, serving live
// telemetry, and emitting the run manifest plus trace/series/event-log
// artifacts. Usage:
//
//	run := obs.NewRun("pimsim", flag.CommandLine)
//	flag.Parse()
//	run.Start()
//	... work ...
//	run.Finish("out", map[string]any{...}, seed, os.Stdout)
type Run struct {
	// Metrics makes Finish print the counter/stage table (set by
	// -metrics).
	Metrics bool
	// ServeAddr, when non-empty, serves live telemetry — /metrics
	// (Prometheus text), /healthz, /series, /wear.png, /debug/pprof/ —
	// on that address for the duration of the run (set by -serve).
	ServeAddr string
	// Handler, when non-nil, answers every -serve path the telemetry
	// endpoints do not (a command's own API). Set it before Start.
	Handler http.Handler
	// Trace enables the span event ring and makes Finish write the
	// Chrome trace_event export to out/trace_<cmd>.json (set by -trace,
	// default on).
	Trace bool
	// Events enables the structured JSONL event log and makes Finish
	// write out/events_<cmd>.jsonl when any records were logged (set by
	// -events, default on). The log feeds the -serve /events endpoint.
	Events bool

	manifest  *Manifest
	telemetry *telemetryServer
}

// NewRun creates the lifecycle for the named command and registers the
// -metrics, -serve, -trace and -events flags on fs (pass
// flag.CommandLine for whole-process CLIs, or a subcommand's FlagSet).
func NewRun(cmd string, fs *flag.FlagSet) *Run {
	r := &Run{manifest: NewManifest(cmd)}
	fs.BoolVar(&r.Metrics, "metrics", false, "print the observability counter/stage table at exit")
	fs.StringVar(&r.ServeAddr, "serve", "", "serve live telemetry (/metrics, /healthz, /series, /events, /dashboard, /wear.png) and profiles (/debug/pprof/) on this address (e.g. localhost:8090)")
	fs.BoolVar(&r.Trace, "trace", true, "record span begin/end events and write out/trace_<cmd>.json (Chrome trace_event format)")
	fs.BoolVar(&r.Events, "events", true, "record structured events and write out/events_<cmd>.jsonl (JSON Lines)")
	return r
}

// Start enables the observability layer (and, with -trace, the span
// event ring), then binds the -serve server. Call it right after flag
// parsing. The listener is bound synchronously so a bad address errors
// here; the server runs until Finish.
func (r *Run) Start() error {
	Enable()
	if r.Trace {
		EnableEvents(DefaultEventCapacity)
	}
	if r.Events {
		EnableLog(DefaultLogCapacity)
	}
	if r.ServeAddr != "" {
		ts, err := startTelemetryServer(r.ServeAddr, r.Handler)
		if err != nil {
			return err
		}
		r.telemetry = ts
	}
	return nil
}

// ServeBound returns the telemetry server's bound address ("" when
// -serve was not given).
func (r *Run) ServeBound() string {
	if r.telemetry == nil {
		return ""
	}
	return r.telemetry.Addr()
}

// Close shuts down the telemetry server, if running. Finish calls it; it
// is safe to call twice.
func (r *Run) Close() {
	if r.telemetry != nil {
		_ = r.telemetry.Close()
		r.telemetry = nil
	}
}

// Finish completes the run: it folds the observability snapshot into the
// manifest, writes manifest_<cmd>.json under outDir, exports the span
// event ring as trace_<cmd>.json and every registered Series as
// series_<name>.{csv,json}, prints the counter/stage table when -metrics
// was given, and shuts the telemetry server down. config is the CLI's
// resolved configuration and seed its random seed (0 if none).
func (r *Run) Finish(outDir string, config map[string]any, seed int64, w io.Writer) error {
	defer r.Close()
	r.manifest.Config = config
	r.manifest.Seed = seed
	r.manifest.Finish()
	if r.Metrics {
		if err := WriteTable(w); err != nil {
			return err
		}
	}
	if err := r.manifest.WriteFile(outDir); err != nil {
		return fmt.Errorf("obs: writing manifest: %w", err)
	}
	if r.Trace && CaptureEventStats().Recorded > 0 {
		path := filepath.Join(outDir, "trace_"+r.manifest.Command+".json")
		if err := writeFileAtomic(path, WriteTrace); err != nil {
			return fmt.Errorf("obs: writing trace: %w", err)
		}
	}
	if r.Events && CaptureLogStats().Recorded > 0 {
		path := filepath.Join(outDir, "events_"+r.manifest.Command+".jsonl")
		if err := writeFileAtomic(path, func(w io.Writer) error {
			return WriteLogJSONL(w, 0)
		}); err != nil {
			return fmt.Errorf("obs: writing event log: %w", err)
		}
	}
	for _, s := range AllSeries() {
		base := filepath.Join(outDir, "series_"+fsSafe(s.Name()))
		if err := writeFileAtomic(base+".csv", s.WriteCSV); err != nil {
			return fmt.Errorf("obs: writing series: %w", err)
		}
		one := s
		if err := writeFileAtomic(base+".json", func(w io.Writer) error {
			data, err := one.MarshalJSON()
			if err != nil {
				return err
			}
			_, err = w.Write(append(data, '\n'))
			return err
		}); err != nil {
			return fmt.Errorf("obs: writing series: %w", err)
		}
	}
	return nil
}

// Manifest exposes the run's manifest (tests inspect it; CLIs normally
// only need Finish).
func (r *Run) Manifest() *Manifest { return r.manifest }

// fsSafe maps a telemetry name onto the filename alphabet: anything
// outside [a-zA-Z0-9._+-] becomes '_' ("wear.mult.RaxBs+Hw" survives).
func fsSafe(name string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '+', c == '-':
			return c
		default:
			return '_'
		}
	}, name)
}

// writeFileAtomic streams fn into path's directory, creating it first.
func writeFileAtomic(path string, fn func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
