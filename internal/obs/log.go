package obs

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"time"
)

// DefaultLogCapacity is the structured-log ring size Run.Start allocates
// when the log is enabled. At one record per serving-layer event
// (admission, coalesce, rejection, completion) it holds the full history
// of a paper-scale load storm.
const DefaultLogCapacity = 1 << 16

// LogRecord is one structured event: a wall-clock timestamp, an event
// name ("serve.admit", "serve.complete"), the trace id of the job it
// belongs to, and free-form fields (config fingerprint, latency
// breakdown). Records marshal one-per-line into the JSONL artifact
// out/events_<cmd>.jsonl and stream from the -serve /events endpoint.
type LogRecord struct {
	// TimeMS is the record's wall-clock time in Unix milliseconds.
	TimeMS int64 `json:"t_ms"`
	// Event names what happened, dotted like metric names.
	Event string `json:"event"`
	// Trace is the job's trace id ("" for events outside any job).
	Trace string `json:"trace,omitempty"`
	// Fields carries event-specific detail (fingerprint, queue_ms, ...).
	Fields map[string]any `json:"fields,omitempty"`
}

// logRing is the process-wide structured-event log — the same bounded
// drop-oldest ring as the span events, but carrying wall-clock JSONL
// records at request granularity instead of span marks at stage
// granularity.
var logRing = ring[LogRecord]{on: &logOn}

// logOn is the log ring's on flag, so LogEvent's disabled fast path is
// one atomic load.
var logOn atomic.Bool

// EnableLog turns structured-event recording on with a fresh ring of the
// given capacity (≤ 0 selects DefaultLogCapacity).
func EnableLog(capacity int) {
	if capacity <= 0 {
		capacity = DefaultLogCapacity
	}
	logRing.enable(capacity)
}

// DisableLog stops recording; ring contents stay readable through
// LogRecords/WriteLogJSONL until the next EnableLog.
func DisableLog() { logRing.disable() }

// LogEnabled reports whether structured-event recording is on.
func LogEnabled() bool {
	return logOn.Load()
}

// resetLog clears the ring contents and totals, keeping the enabled
// state. Called from Reset so test isolation covers the log too.
func resetLog() { logRing.reset() }

// CaptureLogStats returns the log ring's recorded/dropped totals.
func CaptureLogStats() RingStats { return logRing.stats() }

// LogEvent records one structured event. Disabled, it is one atomic
// load and returns before evaluating anything else, so call sites can
// build the fields map inline without an enabled-check — but hot paths
// that would allocate the map should gate on LogEnabled themselves.
func LogEvent(event, trace string, fields map[string]any) {
	if !logOn.Load() {
		return
	}
	logRing.push(LogRecord{TimeMS: time.Now().UnixMilli(), Event: event, Trace: trace, Fields: fields})
}

// LogRecords snapshots the newest n records in chronological order
// (oldest first); n ≤ 0 returns everything the ring holds.
func LogRecords(n int) []LogRecord {
	recs, _ := logRing.newest(n)
	return recs
}

// WriteLogJSONL writes the newest n records (n ≤ 0: all held) as JSON
// Lines, one record per line — the format of the out/events_<cmd>.jsonl
// artifact and the -serve /events endpoint.
func WriteLogJSONL(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	for _, rec := range LogRecords(n) {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
