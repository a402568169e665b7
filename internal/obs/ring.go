package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// ring is the bounded drop-oldest buffer behind both the span-event ring
// and the structured-event log. A push overwrites the oldest entry when
// the ring is full and never blocks its caller; it holds the mutex for a
// copy only, so recording stays lock-light next to the work it records.
// The ring's on state is its owner's atomic flag, written under the
// mutex, so a disabled caller skips the push with one atomic load.
type ring[T any] struct {
	mu   sync.Mutex
	on   *atomic.Bool
	buf  []T
	head uint64    // total entries ever pushed
	born time.Time // when the current buffer was enabled
}

// enable starts recording into a fresh ring of the given capacity.
func (r *ring[T]) enable(capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = make([]T, capacity)
	r.head = 0
	r.born = time.Now()
	r.on.Store(true)
}

// disable stops recording; the contents stay readable.
func (r *ring[T]) disable() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.on.Store(false)
}

// push records v, dropping the oldest entry when full. It is a no-op
// while the ring is off.
func (r *ring[T]) push(v T) {
	r.mu.Lock()
	if r.on.Load() && len(r.buf) > 0 {
		r.buf[r.head%uint64(len(r.buf))] = v
		r.head++
	}
	r.mu.Unlock()
}

// newest snapshots the newest n entries in chronological order (oldest
// first; n ≤ 0 returns everything held), with the time the buffer was
// enabled. An unallocated ring returns nil.
func (r *ring[T]) newest(n int) ([]T, time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	if size == 0 {
		return nil, r.born
	}
	count := min(r.head, size)
	if n > 0 && uint64(n) < count {
		count = uint64(n)
	}
	start := r.head - count
	out := make([]T, 0, count)
	for i := uint64(0); i < count; i++ {
		out = append(out, r.buf[(start+i)%size])
	}
	return out, r.born
}

// RingStats summarizes a bounded ring — the span-event ring or the
// structured log — for manifests and /metrics: the entries pushed since
// it was enabled, how many of those it had to drop (oldest first), and
// its capacity.
type RingStats struct {
	// Recorded counts every entry pushed since the ring was enabled.
	Recorded uint64 `json:"recorded"`
	// Dropped counts pushes that overwrote an entry the ring no longer
	// holds — the drop-oldest policy in action.
	Dropped uint64 `json:"dropped"`
	// Capacity is the ring size.
	Capacity int `json:"capacity"`
}

// stats returns the ring's totals.
func (r *ring[T]) stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RingStats{Recorded: r.head, Capacity: len(r.buf)}
	if n := uint64(s.Capacity); s.Recorded > n {
		s.Dropped = s.Recorded - n
	}
	return s
}

// reset clears the contents and totals, keeping the enabled state.
func (r *ring[T]) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.buf)
	r.head = 0
}
