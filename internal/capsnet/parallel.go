package capsnet

import (
	"runtime"
	"sync"
)

// This file holds the package's two chunk dispatchers. Both split
// [0, n) into one contiguous chunk per worker, hand every worker a
// distinct index so it can own private buffers, and re-raise the first
// worker panic on the calling goroutine — without that, a panic inside
// a worker goroutine kills the whole process, out of reach of any
// recover() on the serving path, which is exactly the failure mode the
// fault-injection campaign exercises. Who owns the call picks the
// dispatcher: a Network's scratch arenas feed its persistent
// workerPool through scratch.runChunks (allocation-free, joined by
// Network.Close); the ownerless tensor API and the trainer spawn
// goroutines per call through parallelChunks.

// panicCell captures the first panic raised by a set of chunk workers
// so the dispatching goroutine can re-raise it after all chunks
// complete. It is resettable, so one cell embedded in a scratch serves
// every dispatch without allocating.
type panicCell struct {
	mu sync.Mutex
	//pimcaps:guardedby mu
	val any
	//pimcaps:guardedby mu
	set bool
}

func (c *panicCell) reset() {
	c.mu.Lock()
	c.val, c.set = nil, false
	c.mu.Unlock()
}

func (c *panicCell) capture(p any) {
	c.mu.Lock()
	if !c.set {
		c.val, c.set = p, true
	}
	c.mu.Unlock()
}

// repanic re-raises the captured panic, if any. Call only after every
// chunk has finished (the done-channel receives or the WaitGroup wait
// provide the happens-before edge for reading val without the lock).
func (c *panicCell) repanic() {
	//lint:ignore pimcaps/guardedby the per-chunk done-channel receives happen-before this read, so the lock is unnecessary here
	set, val := c.set, c.val
	if set {
		panic(val)
	}
}

// parallelChunks splits [0, n) into one contiguous chunk per worker
// and runs fn(worker, lo, hi) concurrently on goroutines spawned for
// this call, returning the number of chunks used. Work items must
// write to disjoint state, so results are identical to the serial
// loop.
func parallelChunks(n, workers int, fn func(worker, lo, hi int)) int {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return 1
	}
	var (
		wg   sync.WaitGroup
		cell panicCell
	)
	chunk := (n + workers - 1) / workers
	used := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		used++
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					cell.capture(p)
				}
			}()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	cell.repanic()
	return used
}

// maxWorkers bounds worker-buffer allocation for chunked parallelism.
func maxWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunkJob is one contiguous shard of a pooled dispatch. Jobs live in
// a pre-allocated per-scratch array; only pointers to them travel
// through the worker pool's channel, so dispatch allocates nothing.
type chunkJob struct {
	fn             func(worker, lo, hi int)
	worker, lo, hi int
	done           chan<- struct{}
	cell           *panicCell
}

// run executes the job, captures any panic into the job's cell, and
// always signals done (the send is to a buffered channel sized for
// the full worker count, so it never blocks).
func (j *chunkJob) run() {
	defer func() {
		if p := recover(); p != nil {
			j.cell.capture(p)
		}
		j.done <- struct{}{}
	}()
	j.fn(j.worker, j.lo, j.hi)
}

// workerPool is a Network's set of persistent chunk workers. Spawning
// goroutines per dispatch would allocate on every routing iteration;
// instead workers are launched once and fed jobs through a channel.
// Concurrent forward passes share the pool, so total parallelism stays
// bounded by the worker count, which is the point. Closing jobs stops
// the workers; wg joins them.
type workerPool struct {
	jobs chan *chunkJob
	wg   sync.WaitGroup
}

func (p *workerPool) work() {
	defer p.wg.Done()
	for j := range p.jobs {
		j.run()
	}
}
