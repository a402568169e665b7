// Command pimserve runs the endurance-as-a-service job server: the obs
// telemetry listener (-serve, which also serves /debug/pprof/) with
// internal/serve's POST /sweep, POST /run, POST /fleet and GET
// /jobs/<id> as its Run.Handler. Clients submit named benchmarks with a
// pim.RunConfig as JSON (plus devices/sigmas/technologies for
// fleet-survival studies), poll job ids for progress, and repeated or
// identical requests are answered from the WearPlan cache and coalesced
// onto one execution. Every accepted job carries a
// trace id: GET /jobs/<id>/trace returns that job's Chrome trace slice,
// GET /events tails the structured admission log as JSON Lines, and
// GET /dashboard serves a self-refreshing HTML view of queue depth,
// latency histograms and counter sparklines. The process serves until
// SIGINT/SIGTERM, then drains gracefully and writes the usual manifest
// and metrics artifacts (including the event log as events_pimserve.jsonl).
//
// Example:
//
//	pimserve -serve localhost:8090 -workers 8 -queue 64 &
//	curl -s -X POST localhost:8090/sweep -d '{"benchmark":"mult","bits":8}'
//	curl -s localhost:8090/jobs/j000001
//	curl -s localhost:8090/jobs/j000001/trace
//	curl -s 'localhost:8090/events?n=100'
//	curl -s localhost:8090/debug/pprof/heap > heap.pprof
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pimendure/internal/obs"
	"pimendure/internal/serve"
	"pimendure/pim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pimserve: ")

	run := obs.NewRun("pimserve", flag.CommandLine)
	workers := flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "max queued jobs before shedding with 429")
	cacheSize := flag.Int("cache", 32, "WearPlan LRU capacity (0 or negative disables caching)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed requests")
	maxLanes := flag.Int("max-lanes", 4096, "largest lane count a request may ask for")
	maxRows := flag.Int("max-rows", 4096, "largest row count a request may ask for")
	maxIters := flag.Int("max-iterations", 10_000_000, "largest iteration count a request may ask for")
	maxDevices := flag.Int("max-devices", 10_000_000, "largest fleet population a request may ask for")
	manifestDir := flag.String("out", "out", "directory for the run manifest")
	flag.Parse()

	if run.ServeAddr == "" {
		run.ServeAddr = "localhost:8090"
	}
	srv := serve.New(serve.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		Cache:         pim.NewPlanCache(*cacheSize),
		RetryAfter:    *retryAfter,
		MaxLanes:      *maxLanes,
		MaxRows:       *maxRows,
		MaxIterations: *maxIters,
		MaxDevices:    *maxDevices,
	})
	run.Handler = srv
	if err := run.Start(); err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on http://%s (POST /sweep, POST /run, POST /fleet, GET /jobs/<id>[/trace], GET /metrics, GET /events, GET /dashboard, GET /debug/pprof/)", run.ServeBound())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("shutting down: draining running jobs")
	// New jobs get a 503 from here until Finish closes the listener.
	srv.Close()

	config := map[string]any{
		"workers": *workers, "queue": *queue, "cache": *cacheSize,
		"max_lanes": *maxLanes, "max_rows": *maxRows, "max_iterations": *maxIters,
		"max_devices": *maxDevices,
	}
	if err := run.Finish(*manifestDir, config, 0, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
