package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// telemetryShutdownTimeout bounds how long Close waits for in-flight
// telemetry responses before severing them (a package var so the
// timeout-fallback path is testable).
var telemetryShutdownTimeout = 2 * time.Second

// SetTelemetryShutdownTimeout overrides the graceful-close deadline and
// returns a func restoring the previous value — a test hook for the
// Close-after-timeout fallback path.
func SetTelemetryShutdownTimeout(d time.Duration) func() {
	old := telemetryShutdownTimeout
	telemetryShutdownTimeout = d
	return func() { telemetryShutdownTimeout = old }
}

// telemetryServer is the HTTP server behind -serve: live Prometheus
// exposition, health, series snapshots and the wear heatmap.
type telemetryServer struct {
	ln  net.Listener
	srv *http.Server
}

// buffered wraps a renderer so the response is staged in memory first:
// a renderer that fails after a direct write would already have sent a
// 200 header and a truncated body. With the buffer the error path can
// still return a real 500, and success responses carry Content-Length.
func buffered(w http.ResponseWriter, contentType string, render func(io.Writer) error) {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// jsonError writes a JSON error body ({"error": msg}) with the given
// status — keeping machine-readable 404s consistent between the obs
// endpoints and the serving layer behind Run.Handler.
func jsonError(w http.ResponseWriter, msg string, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// startTelemetryServer binds addr synchronously (so a bad address fails
// at startup) and serves the telemetry endpoints in the background:
//
//	/metrics    Prometheus text exposition of every registered metric
//	/healthz    liveness probe ("ok")
//	/series     JSON snapshot of every registered Series; ?name=
//	            selects one (JSON 404 when absent or already removed)
//	/events     structured JSONL event-log tail; ?n= bounds the record
//	            count (default 1000, ≤ 0 for everything held)
//	/dashboard  self-contained live HTML dashboard (polls /metrics
//	            and /series; no external assets)
//	/wear.png   latest wear-distribution heatmap of the series named
//	            by ?name=, or of the smallest-named series carrying one
//	            (404 until a sampled run attaches one via Series.SetPNG)
//	/debug/pprof/  net/http/pprof's live CPU, heap and trace profiles
//
// A non-nil extra answers every other path. The mux routes each request
// to its longest matching pattern, so extra, mounted on "/", never
// shadows an endpoint above.
func startTelemetryServer(addr string, extra http.Handler) (*telemetryServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		if name := r.URL.Query().Get("name"); name != "" {
			s := FindSeries(name)
			if s == nil {
				jsonError(w, fmt.Sprintf("no series named %q (never registered, or removed)", name), http.StatusNotFound)
				return
			}
			buffered(w, "application/json", func(out io.Writer) error {
				enc := json.NewEncoder(out)
				enc.SetIndent("", "  ")
				return enc.Encode(s)
			})
			return
		}
		buffered(w, "application/json", WriteSeriesJSON)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		n := 1000
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				jsonError(w, fmt.Sprintf("bad n=%q: %v", q, err), http.StatusBadRequest)
				return
			}
			n = v
		}
		buffered(w, "application/x-ndjson", func(out io.Writer) error {
			return WriteLogJSONL(out, n)
		})
	})
	mux.HandleFunc("/dashboard", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = io.WriteString(w, dashboardHTML)
	})
	mux.HandleFunc("/wear.png", func(w http.ResponseWriter, r *http.Request) {
		s := heatmapSeries(r.URL.Query().Get("name"))
		if s == nil {
			http.Error(w, "no wear sampler active (run with sampling enabled)", http.StatusNotFound)
			return
		}
		buffered(w, "image/png", s.WritePNG)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if extra != nil {
		mux.Handle("/", extra)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: telemetry server on %s: %w", addr, err)
	}
	ts := &telemetryServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = ts.srv.Serve(ln) }() // runs until Close
	return ts, nil
}

// Addr returns the server's bound address (useful with ":0").
func (t *telemetryServer) Addr() string { return t.ln.Addr().String() }

// Close stops the server gracefully: the listener closes immediately,
// in-flight responses (a /wear.png render, a long /series snapshot, a
// serving layer's job poll) get telemetryShutdownTimeout to complete,
// and only connections still open after the deadline are severed. The
// old behavior — http.Server.Close unconditionally — cut response
// bodies mid-write.
func (t *telemetryServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), telemetryShutdownTimeout)
	defer cancel()
	if err := t.srv.Shutdown(ctx); err != nil {
		return t.srv.Close()
	}
	return nil
}
