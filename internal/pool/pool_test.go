package pool_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pimendure/internal/pool"
)

func TestSize(t *testing.T) {
	cases := []struct{ workers, jobs, want int }{
		{4, 10, 4},
		{10, 4, 4},
		{1, 100, 1},
		{4, 0, 1},
	}
	for _, c := range cases {
		if got := pool.Size(c.workers, c.jobs); got != c.want {
			t.Errorf("Size(%d, %d) = %d, want %d", c.workers, c.jobs, got, c.want)
		}
	}
	if got := pool.Size(0, 1<<30); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Size(0, big) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestShare(t *testing.T) {
	if got := pool.Share(8, 4); got != 2 {
		t.Errorf("Share(8, 4) = %d, want 2", got)
	}
	if got := pool.Share(4, 18); got != 1 {
		t.Errorf("Share(4, 18) = %d, want 1", got)
	}
	if got := pool.Share(8, 0); got != 8 {
		t.Errorf("Share(8, 0) = %d, want 8", got)
	}
}

func TestForEachVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		var visited [n]atomic.Int32
		pool.ForEach(workers, n, func(i int) {
			visited[i].Add(1)
		})
		for i := range visited {
			if v := visited[i].Load(); v != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestForEachWorkerSlotsBounded(t *testing.T) {
	const workers, n = 3, 100
	var used [workers]atomic.Int32
	var sum atomic.Int64
	pool.ForEachWorker(workers, n, func(slot, i int) {
		if slot < 0 || slot >= workers {
			t.Errorf("slot %d out of range", slot)
			return
		}
		used[slot].Add(1)
		sum.Add(int64(i))
	})
	var total int32
	for s := range used {
		total += used[s].Load()
	}
	if total != n {
		t.Errorf("processed %d items, want %d", total, n)
	}
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Errorf("item sum %d, want %d", sum.Load(), want)
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	pool.ForEach(4, 0, func(int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
}

var errBoom = errors.New("boom")

// recovered runs dispatch and returns what it panicked with on the
// calling goroutine (nil if it returned normally).
func recovered(dispatch func()) (v any) {
	defer func() { v = recover() }()
	dispatch()
	return nil
}

// checkRaised asserts that a worker's panic reached the caller with its
// value and the worker's stack.
func checkRaised(t *testing.T, v any, frame string) {
	t.Helper()
	if v == nil {
		t.Fatal("worker panic did not surface on the caller")
	}
	err, ok := v.(error)
	if !ok || !errors.Is(err, errBoom) {
		t.Fatalf("re-raised value %v (%T) does not wrap the worker's error", v, v)
	}
	if msg := fmt.Sprint(v); !strings.Contains(msg, "boom") || !strings.Contains(msg, frame) {
		t.Errorf("re-raised panic lacks the value or the worker stack (frame %s):\n%s", frame, msg)
	}
}

// A panic in a worker slot other than 0 — a goroutine the caller's
// recover cannot reach — is re-raised on the caller after every worker
// has returned.
func TestForEachWorkerRaisesWorkerPanicOnCaller(t *testing.T) {
	const workers, n = 3, 100
	// The first `workers` items wait for each other, so each slot holds
	// exactly one of them and slot 2 is certain to run.
	var barrier sync.WaitGroup
	barrier.Add(workers)
	v := recovered(func() {
		pool.ForEachWorker(workers, n, func(slot, i int) {
			if i < workers {
				barrier.Done()
				barrier.Wait()
				if slot == 2 {
					panic(errBoom)
				}
			}
		})
	})
	checkRaised(t, v, "TestForEachWorkerRaisesWorkerPanicOnCaller")
}

// ForEachBlock re-raises a panic from a block other than the first the
// same way.
func TestForEachBlockRaisesWorkerPanicOnCaller(t *testing.T) {
	var ran atomic.Int32
	v := recovered(func() {
		pool.ForEachBlock(4, 100, func(lo, hi int) {
			ran.Add(1)
			if lo > 0 && lo < 50 {
				panic(errBoom)
			}
		})
	})
	checkRaised(t, v, "TestForEachBlockRaisesWorkerPanicOnCaller")
	if ran.Load() != 4 {
		t.Errorf("%d of 4 blocks ran; the others must still finish before the re-raise", ran.Load())
	}
}
