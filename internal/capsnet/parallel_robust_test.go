package capsnet

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// errBoom is a recognizable panic payload for the recovery tests.
var errBoom = errors.New("boom")

// eachIndex runs fn once per index of [0, n) through parallelChunks at
// the default worker count: the per-item loop form the trainer uses.
func eachIndex(n int, fn func(k int)) {
	parallelChunks(n, maxWorkers(n), func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			fn(k)
		}
	})
}

// TestParallelForRepanicsOnCaller: a panic in one work item must not
// kill the process; it is re-raised on the calling goroutine with the
// original value, like a panicking serial loop, after other items ran.
func TestParallelForRepanicsOnCaller(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 worker to exercise the goroutine path")
	}
	var ran atomic.Int64
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("worker panic was swallowed")
		}
		err, ok := p.(error)
		if !ok || !errors.Is(err, errBoom) {
			t.Fatalf("recovered %v, want the original panic value", p)
		}
		if ran.Load() == 0 {
			t.Fatal("no work item ran")
		}
	}()
	eachIndex(64, func(k int) {
		if k == 17 {
			panic(errBoom)
		}
		ran.Add(1)
	})
	t.Fatal("parallelChunks returned instead of panicking")
}

// TestParallelForResultsUnchanged: the recovery wrapper must not
// perturb the no-fault path.
func TestParallelForResultsUnchanged(t *testing.T) {
	const n = 257
	got := make([]int, n)
	eachIndex(n, func(k int) { got[k] = k * k })
	for k := 0; k < n; k++ {
		if got[k] != k*k {
			t.Fatalf("item %d = %d, want %d", k, got[k], k*k)
		}
	}
}

// TestParallelForCoversEveryIndexOnce: for every size, including the
// empty and the single-item range, each index runs exactly once.
func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		hits := make([]int32, n)
		eachIndex(n, func(k int) { atomic.AddInt32(&hits[k], 1) })
		for k, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d ran %d times, want 1", n, k, h)
			}
		}
	}
}

// TestParallelChunksRepanicsOnCaller: a panicking chunk is re-raised
// on the caller with the original value.
func TestParallelChunksRepanicsOnCaller(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("chunk worker panic was swallowed")
		}
		err, ok := p.(error)
		if !ok || !errors.Is(err, errBoom) {
			t.Fatalf("recovered %v, want the original panic value", p)
		}
	}()
	parallelChunks(64, 4, func(worker, lo, hi int) {
		if worker == 2 {
			panic(errBoom)
		}
	})
	t.Fatal("parallelChunks returned instead of panicking")
}

// TestParallelChunksSerialPathPanics: with one item the serial path
// panics directly on the caller.
func TestParallelChunksSerialPathPanics(t *testing.T) {
	defer func() {
		if p := recover(); p == nil {
			t.Fatal("serial-path panic was swallowed")
		}
	}()
	parallelChunks(1, 4, func(int, int, int) { panic(errBoom) })
}

// TestParallelChunksNoFault: worker count and coverage are unchanged
// by the recovery wrapper.
func TestParallelChunksNoFault(t *testing.T) {
	covered := make([]atomic.Int32, 100)
	used := parallelChunks(100, 4, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
		}
	})
	if used != 4 {
		t.Fatalf("used %d workers, want 4", used)
	}
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i].Load())
		}
	}
}
