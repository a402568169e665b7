package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"
)

// DefaultEventCapacity is the event-ring size Run.Start allocates when
// span-event recording is enabled (-trace). At two events per span and
// job-granularity instrumentation it holds the tail of even a paper-scale
// sweep (~tens of thousands of spans) in a few megabytes.
const DefaultEventCapacity = 1 << 16

// EventBegin and EventEnd are the two phases an event ring entry can
// carry, matching the Chrome trace_event "ph" values they export as.
const (
	EventBegin = 'B'
	EventEnd   = 'E'
)

// Event is one begin/end mark of a named stage on one goroutine: the
// raw material of the Chrome trace export. TS is nanoseconds since the
// ring was enabled; TID is the emitting goroutine's id, so concurrent
// pool workers land on distinct tracks in Perfetto.
type Event struct {
	// Name is the stage name (the span's timer name).
	Name string
	// Ph is EventBegin or EventEnd.
	Ph byte
	// TS is nanoseconds since EnableEvents.
	TS int64
	// TID is the goroutine id the event was emitted from.
	TID int64
	// Trace is the trace id bound to the emitting goroutine at emission
	// time ("" outside any traced job) — the filter key behind
	// TraceEventsFor and the serving layer's /jobs/<id>/trace endpoint.
	Trace string
}

// events is the process-wide span-event ring (see ring). Recording
// happens at span (epoch / job) granularity, never in the per-op replay
// loops, so contention on its mutex is negligible next to the work a
// span brackets. Entries carry TS as nanoseconds since monoBase; the
// snapshot rebases them onto the ring's enable time.
var events = ring[Event]{on: &eventsOn}

// eventsOn is the ring's on flag, so the per-span fast path — "are
// events even being recorded?" — is one atomic load instead of a mutex
// round-trip on the global ring.
var eventsOn atomic.Bool

// monoBase anchors event timestamps on the monotonic clock.
var monoBase = time.Now()

// EnableEvents turns span-event recording on with a fresh ring of the
// given capacity (≤ 0 selects DefaultEventCapacity). Timestamps are
// relative to this call. Events only record while the layer itself is
// enabled too (Enable), since they are emitted by StartSpan/End.
func EnableEvents(capacity int) {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	events.enable(capacity)
}

// DisableEvents stops recording; the ring contents stay readable through
// TraceEvents/WriteTrace until the next EnableEvents.
func DisableEvents() { events.disable() }

// EventsEnabled reports whether span events are being recorded.
func EventsEnabled() bool {
	return eventsOn.Load()
}

// CaptureEventStats returns the span-event ring's recorded/dropped
// totals.
func CaptureEventStats() RingStats { return events.stats() }

// recordEvent pushes one begin/end mark onto the ring (drop-oldest).
// Callers check EventsEnabled-style gating themselves via the tid they
// carry; a zero tid means "events were off when the span started".
func recordEvent(ph byte, name string, tid int64) {
	if !eventsOn.Load() {
		return
	}
	ts := time.Since(monoBase).Nanoseconds()
	trace := traceFor(tid) // before taking the ring's mutex: keeps its critical section copy-only
	events.push(Event{Name: name, Ph: ph, TS: ts, TID: tid, Trace: trace})
}

// eventTID returns the goroutine id to stamp on events, or 0 when the
// ring is off (the zero tid suppresses the matching End emission).
func eventTID() int64 {
	if !eventsOn.Load() {
		return 0
	}
	return goid()
}

// goid parses the current goroutine's id from runtime.Stack. It costs
// about a microsecond — paid only while event recording is on, and only
// at span granularity — and buys per-goroutine tracks in the trace
// export, which is what makes the pool's parallel schedule readable.
func goid() int64 {
	var b [40]byte
	n := runtime.Stack(b[:], false)
	// "goroutine 123 [running]:"
	const prefix = len("goroutine ")
	var id int64
	for i := prefix; i < n && b[i] >= '0' && b[i] <= '9'; i++ {
		id = id*10 + int64(b[i]-'0')
	}
	return id
}

// TraceEvents snapshots the ring in chronological order (oldest first).
func TraceEvents() []Event {
	evs, born := events.newest(0)
	off := born.Sub(monoBase).Nanoseconds()
	for i := range evs {
		evs[i].TS -= off
	}
	return evs
}

// TraceEventsFor snapshots the ring filtered to one trace id, oldest
// first — the full span history of a single serving-layer job.
func TraceEventsFor(trace string) []Event {
	all := TraceEvents()
	out := make([]Event, 0, 16)
	for _, ev := range all {
		if ev.Trace == trace {
			out = append(out, ev)
		}
	}
	return out
}

// traceEvent is the Chrome trace_event JSON shape of one Event. Ts is in
// microseconds as the format requires; pid is constant (one process).
// Args carries the trace id so a job's events are filterable in
// Perfetto/chrome://tracing ("args.trace" query).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the JSON object WriteTrace emits — the "JSON Object
// Format" of the Chrome trace_event spec, loadable in Perfetto and
// chrome://tracing.
type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace exports the event ring as Chrome trace_event JSON. Begin
// events whose matching end was emitted after a ring wrap (or vice
// versa) may appear unpaired; trace viewers tolerate this, closing open
// slices at the end of the capture.
func WriteTrace(w io.Writer) error {
	return writeTraceDoc(w, TraceEvents())
}

// WriteTraceFor exports only the events stamped with the given trace id
// — one job's lifecycle as a standalone Chrome trace document, the
// payload behind the serving layer's /jobs/<id>/trace endpoint.
func WriteTraceFor(w io.Writer, trace string) error {
	return writeTraceDoc(w, TraceEventsFor(trace))
}

func writeTraceDoc(w io.Writer, evs []Event) error {
	doc := traceDoc{TraceEvents: make([]traceEvent, len(evs)), DisplayTimeUnit: "ms"}
	for i, ev := range evs {
		te := traceEvent{
			Name: ev.Name,
			Ph:   string(ev.Ph),
			Ts:   float64(ev.TS) / 1e3,
			Pid:  1,
			Tid:  ev.TID,
		}
		if ev.Trace != "" {
			te.Args = map[string]any{"trace": ev.Trace}
		}
		doc.TraceEvents[i] = te
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("obs: encoding trace: %w", err)
	}
	return nil
}
