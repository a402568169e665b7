package obs

import "sync/atomic"

// Counter is a named monotonic total (writes accumulated, memo hits,
// epochs simulated). Adds are lock-free and safe from any number of
// goroutines; while the layer is disabled an Add is one atomic load.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registry name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n when the layer is enabled; disabled it
// records nothing.
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the accumulated total.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) kind() string { return "counter" }
func (c *Counter) reset()       { c.v.Store(0) }

// Gauge is a named max-watermark level: Observe proposes a value and the
// gauge keeps the highest seen since the last Reset. The wear engine's
// pool reports its queue depth through one — a sweep's manifest then
// shows the deepest backlog the bounded pool ever held.
type Gauge struct {
	name string
	max  atomic.Int64
}

// Name returns the gauge's registry name.
func (g *Gauge) Name() string { return g.name }

// Observe raises the watermark to v if v is the highest value seen so
// far. Lock-free; disabled it records nothing.
func (g *Gauge) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	g.observe(v)
}

func (g *Gauge) observe(v int64) {
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the highest observed value.
func (g *Gauge) Value() int64 { return g.max.Load() }

func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) reset()       { g.max.Store(0) }
