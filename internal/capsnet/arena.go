package capsnet

import (
	"runtime"

	"pimcapsnet/internal/tensor"
)

// This file implements the allocation-free forward path: a per-Network
// pool of scratch arenas sized once from the layer shapes, acquired
// per Forward/ForwardBatch call, and reused across routing iterations
// and across calls. In steady state (every Output released, batch
// sizes at or below the high-water mark) a forward pass performs zero
// heap allocations: all tensors are views Reuse-bound over one arena
// slab, the chunk kernels are closures bound once at scratch creation,
// and chunk dispatch rides persistent worker goroutines fed through a
// channel of pre-allocated job slots. This is the software analogue of
// the on-chip buffer management the paper's related accelerators
// (CapsAcc, DESCNet) use to attack the same data-reuse problem.
//
// The Network owns the workers and the pooled arenas; Close stops and
// joins the one and drops the other. Nothing is left to a finalizer.

// scratch holds every buffer one forward pass needs, carved from a
// single arena slab, plus the pre-bound chunk kernels and dispatch
// plumbing. A scratch serves one forward pass at a time; the Network
// pools released scratches for reuse.
type scratch struct {
	// router is the Eqs. 2–5 routing state over the arena buffers
	// (preds/b/c/v/s), owned by this scratch so it dispatches through
	// runChunks. Its nb is the current call's batch size.
	router

	net  *Network
	pool *workerPool // the Network's workers; nil when maxW is 1
	capB int         // batch capacity the buffers are sized for
	maxW int         // worker count snapshot (GOMAXPROCS at creation)

	// Layer geometry, computed once.
	imgLen, convLen    int
	ph, pw             int // primary-caps conv output spatial size
	cols1Len, cols2Len int
	primRawLen         int
	cl, nclass         int

	// Arena-carved buffers. batch backs ForwardBatch image assembly;
	// feats holds the conv outputs batch-wide (used by the fused and
	// the stage-split front end alike, so both are bit-identical); u is
	// the primary capsules Eq. 1 reads; lengths the ‖v_j‖ outputs;
	// cols1/cols2/praw are per-worker conv scratch.
	arena                    *tensor.Arena
	batch, feats, u, lengths []float32
	cols1, cols2, praw       [][]float32

	// in is the current call's input images.
	in []float32

	// Reused tensor views over the buffers above, re-bound per call.
	uT, bT, cT, vT, lengthsT *tensor.Tensor

	// out is the Output returned to the caller; it points at the views
	// above and back at this scratch for Release.
	out Output

	// Pre-bound front-end kernels (method values created once; they
	// read the fields above at call time, so growing the buffers does
	// not invalidate them).
	convPrimFn, convFn, primFn, predFn func(w, lo, hi int)

	// Chunk-dispatch plumbing: a job slot per worker, a buffered done
	// channel sized for all of them, and a resettable panic cell.
	jobs []chunkJob
	done chan struct{}
	cell panicCell
}

// newScratch builds a scratch for batches up to nb samples.
func newScratch(n *Network, nb int) *scratch {
	s := &scratch{net: n}
	s.maxW = runtime.GOMAXPROCS(0)
	cfg := n.Config
	s.imgLen = cfg.InputChannels * cfg.InputH * cfg.InputW
	convSpec := n.Conv.Spec
	s.convLen = convSpec.Cout * n.convH * n.convW
	primSpec := n.Primary.Conv.Spec
	s.ph, s.pw = primSpec.OutSize(n.convH, n.convW)
	s.cols1Len = n.convH * n.convW * convSpec.Cin * convSpec.K * convSpec.K
	s.cols2Len = s.ph * s.pw * primSpec.Cin * primSpec.K * primSpec.K
	s.primRawLen = primSpec.Cout * s.ph * s.pw
	s.nl, s.cl = n.Digit.NumIn, n.Digit.DimIn
	s.nh, s.ch = n.Digit.NumOut, n.Digit.DimOut
	s.nclass = cfg.Classes
	s.alloc(nb)
	s.uT = tensor.New(0, 0, 0)
	s.bT = tensor.New(0, 0, 0)
	s.cT = tensor.New(0, 0, 0)
	s.vT = tensor.New(0, 0, 0)
	s.lengthsT = tensor.New(0, 0)
	s.jobs = make([]chunkJob, s.maxW)
	s.done = make(chan struct{}, s.maxW)
	if s.maxW > 1 {
		s.pool = n.ensurePool(s.maxW - 1)
	}
	s.owner = s
	s.bindKernels()
	s.convPrimFn = s.convPrimRange
	s.convFn = s.convRange
	s.primFn = s.primRange
	s.predFn = s.predRange
	return s
}

// drop gives the scratch's arena bytes back to the ArenaBytes gauge
// when the scratch leaves the Network for good.
func (s *scratch) drop() {
	s.net.arenaFloats.Add(^(uint64(s.arena.Size()) - 1))
}

// alloc sizes (or re-sizes, on batch growth) every buffer for batches
// up to nb, carving them out of one fresh arena slab. The pre-bound
// kernels read the slice fields at call time, so swapping the buffers
// here is safe between forward passes.
func (s *scratch) alloc(nb int) {
	perSample := s.imgLen + s.convLen + s.nl*s.cl + s.nl*s.nh*s.ch +
		2*s.nl*s.nh + 2*s.nh*s.ch + s.nclass
	perWorker := s.cols1Len + s.cols2Len + s.primRawLen
	total := nb*perSample + s.maxW*perWorker
	old := 0
	if s.arena != nil {
		old = s.arena.Size()
	}
	s.arena = tensor.NewArena(total)
	s.net.arenaFloats.Add(uint64(total - old))
	a := s.arena
	s.batch = a.Alloc(nb * s.imgLen)
	s.feats = a.Alloc(nb * s.convLen)
	s.u = a.Alloc(nb * s.nl * s.cl)
	s.preds = a.Alloc(nb * s.nl * s.nh * s.ch)
	s.b = a.Alloc(nb * s.nl * s.nh)
	s.c = a.Alloc(nb * s.nl * s.nh)
	s.v = a.Alloc(nb * s.nh * s.ch)
	s.s = a.Alloc(nb * s.nh * s.ch)
	s.lengths = a.Alloc(nb * s.nclass)
	if s.cols1 == nil {
		s.cols1 = make([][]float32, s.maxW)
		s.cols2 = make([][]float32, s.maxW)
		s.praw = make([][]float32, s.maxW)
	}
	for w := 0; w < s.maxW; w++ {
		s.cols1[w] = a.Alloc(s.cols1Len)
		s.cols2[w] = a.Alloc(s.cols2Len)
		s.praw[w] = a.Alloc(s.primRawLen)
	}
	s.capB = nb
}

// bind re-points the reused tensor views at the current batch size.
// Reuse copies the shape into each view's existing shape array, so
// this allocates nothing in steady state.
//
//pimcaps:hotpath
func (s *scratch) bind() {
	nb := s.nb
	s.uT.Reuse(s.u[:nb*s.nl*s.cl], nb, s.nl, s.cl)
	s.bT.Reuse(s.b[:nb*s.nl*s.nh], nb, s.nl, s.nh)
	s.cT.Reuse(s.c[:nb*s.nl*s.nh], nb, s.nl, s.nh)
	s.vT.Reuse(s.v[:nb*s.nh*s.ch], nb, s.nh, s.ch)
	s.lengthsT.Reuse(s.lengths[:nb*s.nclass], nb, s.nclass)
}

// runChunks splits [0, n) into one contiguous chunk per worker and
// runs fn over them: chunk 0 inline on the calling goroutine, the rest
// on the Network's persistent pool workers. Panics are captured and
// the first re-raised on the caller, matching parallelChunks. The
// dispatch allocates nothing: job slots, the done channel, and the
// panic cell are all part of the scratch. The pool cannot stop under
// it: Close stops the workers only once no forward pass is running.
//
//pimcaps:hotpath
func (s *scratch) runChunks(n int, fn func(worker, lo, hi int)) {
	workers := s.maxW
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	s.cell.reset()
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
		j := &s.jobs[used]
		j.fn, j.worker, j.lo, j.hi, j.done, j.cell = fn, w, lo, hi, s.done, &s.cell
		used++
	}
	for i := 1; i < used; i++ {
		s.pool.jobs <- &s.jobs[i]
	}
	s.jobs[0].run()
	for i := 0; i < used; i++ {
		<-s.done
	}
	s.cell.repanic()
}

// convSample runs the front-end conv + ReLU for sample k into the
// batch-wide feature buffer, using worker w's im2col scratch. Same
// kernel, loop order, and math as ConvLayer.Forward — bit-identical.
//
//pimcaps:hotpath
func (s *scratch) convSample(w, k int) {
	n := s.net
	img := s.in[k*s.imgLen : (k+1)*s.imgLen]
	feat := s.feats[k*s.convLen : (k+1)*s.convLen]
	tensor.Conv2DInto(feat, s.cols1[w], img, n.Conv.Weights.Data(), n.Conv.Bias, n.Conv.Spec, n.Config.InputH, n.Config.InputW)
	tensor.ReLU(feat)
}

// primSample runs the PrimaryCaps conv, capsule regrouping, and squash
// for sample k straight into its u rows — the same regroup indexing
// and exact-math squash as PrimaryCapsLayer.Forward, minus the copy
// through an intermediate capsule tensor (values are identical).
//
//pimcaps:hotpath
func (s *scratch) primSample(w, k int) {
	n := s.net
	prim := n.Primary
	praw := s.praw[w]
	tensor.Conv2DInto(praw, s.cols2[w], s.feats[k*s.convLen:(k+1)*s.convLen],
		prim.Conv.Weights.Data(), prim.Conv.Bias, prim.Conv.Spec, n.convH, n.convW)
	capsDim := prim.CapsDim
	urow := s.u[k*s.nl*capsDim : (k+1)*s.nl*capsDim]
	idx := 0
	for c := 0; c < prim.Channels; c++ {
		for y := 0; y < s.ph; y++ {
			for x := 0; x < s.pw; x++ {
				for d := 0; d < capsDim; d++ {
					urow[idx*capsDim+d] = praw[(c*capsDim+d)*s.ph*s.pw+y*s.pw+x]
				}
				idx++
			}
		}
	}
	for i := 0; i < s.nl; i++ {
		squashInto(ExactMath{}, urow[i*capsDim:(i+1)*capsDim], urow[i*capsDim:(i+1)*capsDim])
	}
}

//pimcaps:hotpath
func (s *scratch) convPrimRange(w, lo, hi int) {
	for k := lo; k < hi; k++ {
		s.convSample(w, k)
		s.primSample(w, k)
	}
}

//pimcaps:hotpath
func (s *scratch) convRange(w, lo, hi int) {
	for k := lo; k < hi; k++ {
		s.convSample(w, k)
	}
}

//pimcaps:hotpath
func (s *scratch) primRange(w, lo, hi int) {
	for k := lo; k < hi; k++ {
		s.primSample(w, k)
	}
}

//pimcaps:hotpath
func (s *scratch) predRange(_, lo, hi int) {
	predictionVectorsRange(s.u, s.net.Digit.Weights.Data(), s.preds, s.nb, s.nl, s.cl, s.nh, s.ch, lo, hi, true)
}

// ensurePool returns the Network's worker pool, starting it on first
// use and growing it to at least extra workers (the dispatching
// goroutine runs chunk 0 itself, so a scratch of w workers needs
// w-1). Called at scratch creation, never on the hot path.
func (n *Network) ensurePool(extra int) *workerPool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pool == nil {
		n.pool = &workerPool{jobs: make(chan *chunkJob, 64)}
	}
	for ; n.poolSpawned < extra; n.poolSpawned++ {
		n.pool.wg.Add(1)
		go n.pool.work()
	}
	return n.pool
}

// acquireScratch admits a forward pass and pops a pooled scratch
// (growing it if the batch outgrew its buffers) or builds a fresh one.
// Steady state — a released scratch available, nb within capacity —
// is a mutex-guarded slice pop: zero allocations. Every admitted pass
// must end with endPass.
//
//pimcaps:hotpath
func (n *Network) acquireScratch(nb int) *scratch {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		panic("capsnet: forward pass on a closed Network")
	}
	n.passes++
	var s *scratch
	if k := len(n.scratchFree) - 1; k >= 0 {
		s = n.scratchFree[k]
		n.scratchFree[k] = nil
		n.scratchFree = n.scratchFree[:k]
	}
	n.mu.Unlock()
	if s == nil {
		s = newScratch(n, nb)
	} else if s.capB < nb {
		s.alloc(nb)
	}
	s.nb = nb
	return s
}

// endPass retires a forward pass admitted by acquireScratch. The last
// pass to end on a closed Network stops the workers Close had to leave
// running for it.
func (n *Network) endPass() {
	n.mu.Lock()
	n.passes--
	var stop *workerPool
	if n.closed && n.passes == 0 {
		stop = n.pool
	}
	n.mu.Unlock()
	if stop != nil {
		close(stop.jobs)
	}
}

// Close releases what the Network holds for forward passes: it stops
// and joins the chunk workers and drops the pooled scratch arenas, so
// ArenaBytes reads 0 once every Output is released (an Output released
// after Close drops its arena instead of pooling it). A forward pass
// still running when Close is called — one a serving watchdog gave up
// on, say — completes normally, and the workers stop when it returns
// instead of being joined here. Forward and ForwardBatch panic after
// Close; the weights and every other method stay usable. Close is
// idempotent.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, s := range n.scratchFree {
		s.drop()
	}
	n.scratchFree = nil
	var stop *workerPool
	if n.passes == 0 {
		stop = n.pool
	}
	n.mu.Unlock()
	if stop != nil {
		close(stop.jobs)
		stop.wg.Wait()
	}
}

// Release returns the Output's scratch arena to the Network's pool so
// the next Forward/ForwardBatch call reuses it — the step that makes
// the steady-state forward path allocation-free. After Release the
// Output and every tensor it exposes (Capsules, Lengths, Primary, the
// RoutingResult) alias buffers the next forward pass will overwrite;
// copy anything you need first. Release is idempotent; an Output that
// is never released simply keeps its buffers (the pre-arena behavior,
// safe but unpooled, and still counted by ArenaBytes) but abandons the
// pooling win — which is why releasecheck makes every Forward caller,
// trainers included, reach a Release.
//
//pimcaps:hotpath
func (o *Output) Release() {
	s := o.scr
	if s == nil {
		return
	}
	o.scr = nil
	n := s.net
	n.mu.Lock()
	if n.closed {
		s.drop()
	} else {
		//lint:ignore pimcaps/hotpathcheck the free-list grows to the steady-state scratch count and then never reallocates; there is no fixed bound to pre-size it to
		n.scratchFree = append(n.scratchFree, s)
	}
	n.mu.Unlock()
}

// ArenaBytes reports the bytes held by this Network's forward-pass
// scratch arenas (a high-water figure: arenas grow with the largest
// batch seen and are retained by the pool until Close). Serving exposes it as the
// capsnet_arena_bytes gauge.
func (n *Network) ArenaBytes() uint64 { return 4 * n.arenaFloats.Load() }

// PartitionCounts reports how many routing runs sharded on the batch
// dimension and on the high-level-capsule dimension respectively —
// the observable face of the Eqs. 6–12 cost model behind the
// Partition knob.
func (n *Network) PartitionCounts() (batch, hcaps uint64) {
	return n.partB.Load(), n.partH.Load()
}
