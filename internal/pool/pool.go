// Package pool provides the bounded worker pool shared by the parallel
// wear engine (internal/core) and the strategy sweep (pim.Sweep). It
// replaces ad-hoc unbounded goroutine fan-out: callers state a worker
// budget, the pool clamps it to the job count, and work items are pulled
// off a shared counter so long items do not stall short ones.
//
// The pool makes no ordering guarantees between items; callers that need
// deterministic results must make each item's effect independent of
// scheduling (the wear engine does this with per-worker accumulation
// buffers merged by commutative uint64 addition).
//
// A panic on a pool goroutine does not crash the process from there: the
// first one is recovered (ForEachWorker then stops handing out items),
// and once every worker has returned it is raised again on the calling
// goroutine, carrying the worker's stack, where the caller's own recover
// (a serving layer's per-job guard) can contain it.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"pimendure/internal/obs"
)

// Observability handles (no-ops until obs.Enable): how many batches were
// dispatched, how many items they carried, and the deepest queue any
// single dispatch presented to the pool.
var (
	obsDispatches = obs.GetCounter("pool.dispatches")
	obsJobs       = obs.GetCounter("pool.jobs")
	obsQueueDepth = obs.GetGauge("pool.queue_depth")
)

// Size normalizes a requested worker count against a job count: values
// ≤ 0 select runtime.GOMAXPROCS(0), and the result never exceeds jobs
// (and is at least 1).
func Size(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if jobs < workers {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Share divides a total worker budget among outer concurrent tasks,
// granting each at least one worker. Nested parallel stages (a sweep of
// strategies, each running a parallel engine) use it to keep the total
// goroutine count near the budget instead of multiplying.
func Share(total, outer int) int {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	if outer < 1 {
		outer = 1
	}
	n := total / outer
	if n < 1 {
		n = 1
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) on at most `workers`
// goroutines (≤ 0 selects GOMAXPROCS). With an effective pool size of 1
// it runs inline on the calling goroutine, spawning nothing.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachBlock partitions [0, n) into one contiguous block per worker
// (≤ 0 selects GOMAXPROCS; the pool clamps to n) and runs fn(lo, hi) for
// each block. It exists for data-parallel kernels over dense arrays —
// row-block gate execution in internal/array — where contiguous ranges
// keep the per-worker access pattern sequential and a shared work counter
// would only add contention. With an effective size of 1 it runs fn(0, n)
// inline, spawning nothing. Blocks are near-equal (boundaries distributed
// evenly when n does not divide); fn must make block effects independent
// of scheduling, as with ForEach.
func ForEachBlock(workers, n int, fn func(lo, hi int)) {
	w := Size(workers, n)
	obsDispatches.Add(1)
	obsJobs.Add(int64(w))
	obsQueueDepth.Observe(int64(w))
	if w == 1 {
		fn(0, n)
		return
	}
	// Propagate the dispatcher's trace id: the spawned workers belong to
	// the same request-scoped unit of work (trace bindings are
	// per-goroutine, so without this the fan-out would break the trace).
	trace := obs.CurrentTrace()
	var wg sync.WaitGroup
	var first firstPanic
	wg.Add(w)
	for b := 0; b < w; b++ {
		go func(b int) {
			defer wg.Done()
			defer first.catch(nil)
			if trace != "" {
				defer obs.SetTrace(trace)()
			}
			fn(b*n/w, (b+1)*n/w)
		}(b)
	}
	wg.Wait()
	first.raise()
}

// ForEachWorker is ForEach with the worker slot id (0..size-1) passed
// alongside each item, so callers can keep per-worker accumulation
// buffers without locking. Slot 0 is always used; when the pool runs
// inline every item sees slot 0.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	w := Size(workers, n)
	obsDispatches.Add(1)
	obsJobs.Add(int64(n))
	obsQueueDepth.Observe(int64(n))
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// Same trace propagation as ForEachBlock: workers inherit the
	// dispatcher's request-scoped trace id.
	trace := obs.CurrentTrace()
	var next atomic.Int64
	var wg sync.WaitGroup
	var first firstPanic
	wg.Add(w)
	for slot := 0; slot < w; slot++ {
		go func(slot int) {
			defer wg.Done()
			// A panic abandons the items nobody has taken yet.
			defer first.catch(func() { next.Store(int64(n)) })
			if trace != "" {
				defer obs.SetTrace(trace)()
			}
			// Span per worker goroutine, not per item: the trace then
			// shows one track per worker with the drain interval, and the
			// per-item overhead stays off the replay hot path.
			sp := obs.StartSpan("pool.worker")
			defer sp.End()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(slot, i)
			}
		}(slot)
	}
	wg.Wait()
	first.raise()
}

// firstPanic keeps the first panic recovered on a dispatch's workers.
type firstPanic struct {
	once sync.Once
	p    *workerPanic
}

// catch, deferred on a worker goroutine, records that goroutine's
// panic (the first one wins) and runs stop, when non-nil, to end the
// dispatch early.
func (f *firstPanic) catch(stop func()) {
	v := recover()
	if v == nil {
		return
	}
	f.once.Do(func() { f.p = &workerPanic{value: v, stack: debug.Stack()} })
	if stop != nil {
		stop()
	}
}

// raise re-panics on the dispatching goroutine with the recorded worker
// panic, if there was one. Call it after every worker has returned.
func (f *firstPanic) raise() {
	if f.p != nil {
		panic(f.p)
	}
}

// workerPanic is a panic carried from a pool goroutine to the goroutine
// that dispatched the work. Its message is the original panic value
// followed by the worker's stack, which the re-raise would otherwise
// lose; an error value stays reachable through errors.Is/As.
type workerPanic struct {
	value any
	stack []byte
}

// Error returns the worker's panic value followed by its stack.
func (p *workerPanic) Error() string {
	return fmt.Sprintf("%v\n\npool worker stack:\n%s", p.value, p.stack)
}

// Unwrap returns the worker's panic value when it is an error.
func (p *workerPanic) Unwrap() error {
	err, _ := p.value.(error)
	return err
}
