package obs

import "time"

// timer accumulates the completed spans of one stage name: a duration
// histogram (span count, summed nanoseconds and the log buckets, so
// stage timings export as full distributions — p50/p99 of an epoch, not
// just mean and max) and the longest single span as a max watermark, so
// a 10-second outlier epoch stays visible inside an hour-long total.
// Timers are created implicitly by StartSpan and read back through
// Capture/WriteTable; concurrent spans (pool workers timing the same
// stage) accumulate atomically.
type timer struct {
	hist Histogram // nanosecond-scaled, named after the stage
	max  Gauge     // longest single span in nanoseconds
}

func (t *timer) kind() string { return "timer" }

func (t *timer) reset() {
	t.hist.reset()
	t.max.reset()
}

// Span is one in-flight timing of a named stage. The zero Span (what
// StartSpan returns while the layer is disabled) is valid: End and Child
// on it are no-ops, so call sites need no enabled-checks of their own.
type Span struct {
	t     *timer
	start time.Time
	tid   int64 // goroutine id for event emission; 0 = events off at start
}

// StartSpan begins timing the named stage. Stage names are hierarchical
// by convention — "pim.sweep", "core.simulate/hw" — and Child derives
// them mechanically. Disabled, it returns the zero Span at the cost of
// one atomic load. While event recording is on (EnableEvents), the span
// additionally emits a begin mark onto the event ring.
func StartSpan(name string) Span {
	if !enabled.Load() {
		return Span{}
	}
	sp := Span{t: getTimer(name), start: time.Now()}
	if tid := eventTID(); tid != 0 {
		sp.tid = tid
		recordEvent(EventBegin, name, tid)
	}
	return sp
}

// End stops the span and records its wall time on the stage's duration
// histogram, raising the stage's max-single-span watermark when this
// span is the longest seen. End on the zero Span is a no-op; spans
// started while enabled record even if the layer was disabled in
// between (the run is winding down).
func (s Span) End() {
	if s.t == nil {
		return
	}
	d := int64(time.Since(s.start))
	s.t.hist.observe(d)
	s.t.max.observe(d)
	if s.tid != 0 {
		recordEvent(EventEnd, s.t.hist.name, s.tid)
	}
}

// Child starts a span nested under this one: the stage name is
// "<parent>/<name>", so captures and manifests sort children under
// their parent stage. Child of the zero Span is the zero Span — a
// disabled parent disables the whole subtree.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return StartSpan(s.t.hist.name + "/" + name)
}
