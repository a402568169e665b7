package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around a
// public function. Spans of one pass or job share Req.
type span struct {
	Name   string
	Parent int // index into the tracer's spans; -1 for a root
	Req    string
	TID    int
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use: pool workers open and close spans of one pass at once.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its id. A child runs on its parent's
// track unless tid is positive. A nil tracer records nothing, so the
// untraced path can share code with the traced one.
func (t *tracer) start(name string, parent int, req string, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	if tid <= 0 && parent >= 0 {
		tid = t.spans[parent].TID
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, TID: tid, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setReq names the request of spans opened before its id was known.
func (t *tracer) setReq(req string, ids ...int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		t.spans[id].Req = req
	}
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover. Children of one parent may overlap
// each other (pool workers run them in parallel), so their union is
// what is subtracted, not their sum.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi time.Duration
		open := false
		for _, v := range ivs {
			if open && v.lo <= curHi {
				curHi = max(curHi, v.hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// subtree returns the ids of root and every span below it.
func subtree(spans []span, root int) []int {
	in := map[int]bool{root: true}
	ids := []int{root}
	// Spans are appended after their parent, so one forward sweep finds
	// every descendant.
	for i := root + 1; i < len(spans); i++ {
		if in[spans[i].Parent] {
			in[i] = true
			ids = append(ids, i)
		}
	}
	return ids
}

// layerTotal is one layer's share of a traced region.
type layerTotal struct {
	Count  int     `json:"count"`
	SelfS  float64 `json:"self_s"`
	TotalS float64 `json:"total_s"`
	Frac   float64 `json:"frac"`
}

// layerMap is a traced region's totals by span name.
type layerMap map[string]*layerTotal

// get returns a layer's totals, zero for a layer the region never
// entered.
func (m layerMap) get(name string) layerTotal {
	if lt := m[name]; lt != nil {
		return *lt
	}
	return layerTotal{}
}

// layerTotals sums self and total time by span name over the given span
// ids. Frac is each layer's self time over the sum of all self times, so
// the fractions of one region add up to 1.
func layerTotals(spans []span, self []time.Duration, ids []int) layerMap {
	out := layerMap{}
	var all time.Duration
	for _, i := range ids {
		lt := out[spans[i].Name]
		if lt == nil {
			lt = &layerTotal{}
			out[spans[i].Name] = lt
		}
		lt.Count++
		lt.SelfS += self[i].Seconds()
		lt.TotalS += (spans[i].End - spans[i].Start).Seconds()
		all += self[i]
	}
	for _, lt := range out {
		lt.Frac = ratio(lt.SelfS, all.Seconds())
	}
	return out
}

// writeChromeTrace writes spans in the Chrome trace_event format, which
// chrome://tracing and Perfetto open directly.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		parent := ""
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		events = append(events, event{
			Name: s.Name, Cat: "bench", Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.TID,
			Args: map[string]any{"id": i, "parent": s.Parent, "parent_name": parent, "req": s.Req},
		})
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeJSON writes v as indented JSON, checking every step that can
// lose data.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
