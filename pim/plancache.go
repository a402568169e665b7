// The serving layer's WearPlan cache. A core.WearPlan is immutable and
// shared-read-only after construction — exactly a cache entry — and it
// depends only on (trace content, rows, preset): two requests that
// compile the same benchmark at the same geometry can share one plan no
// matter when they arrive. PlanCache keys plans by a content
// fingerprint of the compiled trace, so a sweep server answering
// repeated or similar requests skips the core.simulate/plan stage
// entirely and goes straight to the engines.
package pim

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"sync"

	"pimendure/internal/core"
	"pimendure/internal/obs"
	"pimendure/internal/traceio"
)

// Fingerprint returns a stable content fingerprint of a compiled
// benchmark on a given array geometry — the PlanCache key. Two
// benchmarks with byte-identical compiled traces simulated at the same
// rows/preset produce the same fingerprint regardless of when or where
// they were compiled; anything that changes the trace (lanes, basis,
// allocator, precision, kernel) changes it.
func Fingerprint(b *Benchmark, opt Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "rows=%d;preset=%v;", opt.Rows, opt.PresetOutputs)
	// The versioned trace serialization covers every field the wear
	// engines consume (ops, masks, lanes, lane bits); writing to a hash
	// cannot fail.
	_ = traceio.WriteTrace(h, b.Trace)
	return fmt.Sprintf("%s:%016x", b.Name, h.Sum64())
}

// PlanCache is a bounded LRU of immutable core.WearPlans keyed by
// Fingerprint. All methods are safe for concurrent use; the cached
// plans themselves are read-only, so any number of simulations may run
// against one entry while it sits in (or is evicted from) the cache.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // value: *planEntry
	order    *list.List               // front = most recently used
}

type planEntry struct {
	key  string
	plan *core.WearPlan
}

// NewPlanCache creates a cache holding at most capacity plans; the
// least recently used entry is evicted beyond that. A capacity ≤ 0
// disables caching entirely (every lookup misses, nothing is stored) —
// the cold-path baseline a serving benchmark compares against.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		capacity: capacity,
		entries:  map[string]*list.Element{},
		order:    list.New(),
	}
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// lookup returns the cached plan for key, refreshing its recency.
func (c *PlanCache) lookup(key string) (*core.WearPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*planEntry).plan, true
}

// store inserts a plan under key, evicting the least recently used
// entry past capacity. Concurrent builders of the same key keep the
// first stored plan (the plans are interchangeable by construction).
func (c *PlanCache) store(key string, plan *core.WearPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = c.order.PushFront(&planEntry{key: key, plan: plan})
	for len(c.entries) > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*planEntry).key)
	}
}

// Plan returns the cached WearPlan for the benchmark at this geometry,
// building and caching it on a miss. The second return reports whether
// the plan came from the cache. A cache that stores nothing builds the
// plan without fingerprinting the trace.
func (c *PlanCache) Plan(b *Benchmark, opt Options) (*core.WearPlan, bool) {
	if c.capacity <= 0 {
		return core.NewWearPlan(b.Trace, opt.Rows, opt.PresetOutputs), false
	}
	key := Fingerprint(b, opt)
	if plan, ok := c.lookup(key); ok {
		return plan, true
	}
	plan := core.NewWearPlan(b.Trace, opt.Rows, opt.PresetOutputs)
	c.store(key, plan)
	return plan, false
}

// Sweep is the cache-aware Sweep entry point: identical to Sweep except
// the per-benchmark WearPlan is reused across calls when the benchmark
// fingerprint matches. The hit return reports whether the plan came
// from the cache; results are bit-identical either way (the plan is a
// pure function of the fingerprint).
func (c *PlanCache) Sweep(b *Benchmark, opt Options, rc RunConfig, strategies []Strategy, tech Technology) (results []*Result, hit bool, err error) {
	sp := obs.StartSpan("pim.sweep")
	defer sp.End()
	obsSweeps.Add(1)
	plan, hit := c.Plan(b, opt)
	results, err = sweepPlanned(plan, b, rc, strategies, tech)
	return results, hit, err
}

// Run is the cache-aware Run entry point: one strategy against a
// cached (or freshly cached) plan, with the same hit semantics as
// PlanCache.Sweep.
func (c *PlanCache) Run(b *Benchmark, opt Options, rc RunConfig, s Strategy, tech Technology) (*Result, bool, error) {
	plan, hit := c.Plan(b, opt)
	res, err := runPlanned(plan, b, rc, s, tech)
	return res, hit, err
}
