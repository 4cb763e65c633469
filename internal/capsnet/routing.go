package capsnet

import (
	"fmt"
	"runtime"

	"pimcapsnet/internal/tensor"
)

// RoutingMode selects how the agreement logits b_ij are scoped.
type RoutingMode int

const (
	// RoutePerSample keeps independent routing coefficients per batch
	// element — the original dynamic routing of Sabour et al., and
	// the mode the accuracy experiments use.
	RoutePerSample RoutingMode = iota
	// RouteBatchShared aggregates the agreement over the whole batch
	// (Alg. 1 / Eq. 4 of the PIM-CapsNet paper, which batches input
	// sets "to avoid the local optimal solution of the routing
	// coefficients"). This is the formulation whose B-dimension
	// aggregation the in-memory design distributes.
	RouteBatchShared
)

// String implements fmt.Stringer.
func (m RoutingMode) String() string {
	switch m {
	case RoutePerSample:
		return "per-sample"
	case RouteBatchShared:
		return "batch-shared"
	}
	return fmt.Sprintf("RoutingMode(%d)", int(m))
}

// RoutingResult carries the outputs of a routing-procedure run: the
// high-level capsules v (shape B×H×CH) and the final routing
// coefficients c (shape B×L×H; under RouteBatchShared every batch
// slice holds the same shared coefficients).
type RoutingResult struct {
	V *tensor.Tensor // B×H×CH high-level capsules (Eq. 3 outputs)
	C *tensor.Tensor // B×L×H routing coefficients after the last iteration
	B *tensor.Tensor // B×L×H accumulated agreement logits
}

// DynamicRouting executes the dynamic routing procedure on
// precomputed prediction vectors û of shape B×L×H×CH for the given
// number of iterations, using mathOps for the special functions, with
// per-sample coefficients (Sabour et al.).
func DynamicRouting(preds *tensor.Tensor, iterations int, mathOps RoutingMath) RoutingResult {
	return DynamicRoutingMode(preds, iterations, mathOps, RoutePerSample)
}

// DynamicRoutingShared executes Algorithm 1 exactly as the PIM-CapsNet
// paper states it, with the agreement of Eq. 4 accumulated over all
// input sets k.
func DynamicRoutingShared(preds *tensor.Tensor, iterations int, mathOps RoutingMath) RoutingResult {
	return DynamicRoutingMode(preds, iterations, mathOps, RouteBatchShared)
}

// DynamicRoutingMode is the general entry point. Per iteration it
// performs, exactly as the paper's Fig. 3 flow:
//
//	c_ij ← softmax_j(b_ij)                 (Eq. 5, step 6)
//	s_j^k ← Σ_i û_j|i^k · c_ij             (Eq. 2, step 2)
//	v_j^k ← squash(s_j^k)                  (Eq. 3, step 3)
//	b_ij ← Σ_k v_j^k · û_j|i^k + b_ij      (Eq. 4, steps 4–5)
//
// where the Σ_k of Eq. 4 spans the batch under RouteBatchShared and a
// single sample under RoutePerSample. The agreement update is skipped
// after the final iteration (it would only feed a next iteration that
// never runs), matching reference implementations.
//
// It runs the same router loop as Network.Forward, over freshly
// allocated tensors and with goroutines spawned per dispatch.
func DynamicRoutingMode(preds *tensor.Tensor, iterations int, mathOps RoutingMath, mode RoutingMode) RoutingResult {
	if preds.Rank() != 4 {
		panic(fmt.Sprintf("capsnet: DynamicRouting wants B×L×H×CH predictions, got %v", preds.Shape()))
	}
	if iterations < 1 {
		panic("capsnet: DynamicRouting needs at least one iteration")
	}
	nb, nl, nh, ch := preds.Dim(0), preds.Dim(1), preds.Dim(2), preds.Dim(3)
	b := tensor.New(nb, nl, nh)
	c := tensor.New(nb, nl, nh)
	v := tensor.New(nb, nh, ch)
	r := &router{
		nb: nb, nl: nl, nh: nh, ch: ch,
		preds: preds.Data(), b: b.Data(), c: c.Data(), v: v.Data(),
		s:    make([]float32, nb*nh*ch), // the sums are not returned
		math: mathOps, mode: mode,
	}
	r.bindKernels()
	r.route(iterations, ChoosePartition(PartitionAuto, nb, nl, nh, ch, runtime.GOMAXPROCS(0)), nil, nil)
	return RoutingResult{V: v, C: c, B: b}
}

// router is the state of one dynamic-routing run over a batch of
// prediction vectors û (B×L×H×CH): the logits b and coefficients c
// (B×L×H), the sums s and capsules v (B×H×CH), the run's math and
// mode, and the chunk kernels pre-bound over those fields. A Network's
// scratch embeds one whose buffers live in the arena; the tensor API
// builds one per call over fresh tensors. Both run the same loop, so
// their results are bit-identical.
type router struct {
	nb, nl, nh, ch    int
	preds, b, c, v, s []float32
	math              RoutingMath
	mode              RoutingMode
	// owner is the scratch embedding this router, whose pooled workers
	// run its chunks; nil for the tensor API.
	owner *scratch

	aggBFn, aggHFn                     func(worker, lo, hi int)
	agreeBFn, agreeHFn, agreeSharedHFn func(worker, lo, hi int)
}

// run dispatches a chunk kernel: to the owning Network's worker pool
// when a scratch owns the router, else to goroutines spawned for this
// call (a pool there would have no owner to stop it).
//
//pimcaps:hotpath
func (r *router) run(n int, fn func(worker, lo, hi int)) {
	if r.owner != nil {
		r.owner.runChunks(n, fn)
		return
	}
	parallelChunks(n, runtime.GOMAXPROCS(0), fn)
}

// bindKernels creates the kernel method values once; they read the
// router's fields at call time, so re-pointing the buffers later does
// not invalidate them.
func (r *router) bindKernels() {
	r.aggBFn = r.aggSamplesRange
	r.aggHFn = r.aggCapsRange
	r.agreeBFn = r.agreeSamplesRange
	r.agreeHFn = r.agreeCapsRange
	r.agreeSharedHFn = r.agreeSharedCapsRange
}

// route runs the given number of routing iterations (see
// DynamicRoutingMode), sharding the aggregate and agreement phases on
// dim. Each iteration is bracketed as StageRoutingIteration (with its
// index) on st, its softmax, aggregate+squash and agreement phases
// nested inside as sub-stages; a nil st is the untimed path with
// identical results. A non-nil cancel is polled before every
// iteration (including the first), and route returns true as soon as
// it fires, leaving partial state behind — an all-expired batch stops
// burning the most expensive stage of the pass.
//
//pimcaps:hotpath
func (r *router) route(iterations int, dim Partition, cancel CancelCheck, st StageTimer) (aborted bool) {
	nb, nl, nh, ch := r.nb, r.nl, r.nh, r.ch
	mathOps, mode := r.math, r.mode
	bd := r.b[:nb*nl*nh]
	cd := r.c[:nb*nl*nh]
	sd := r.s[:nb*nh*ch]
	clear(bd) // logits start at zero, as a fresh tensor would
	// sharedB aliases sample 0's logits when coefficients are shared.
	sharedB := bd[:nl*nh]

	// The shard dimension is picked once per run; a zero-duration
	// marker stage (iteration = the chosen Partition value) records it
	// in stage traces.
	endStage(beginStage(st, StageRoutingPartition, int(dim)))

	for it := 0; it < iterations; it++ {
		if cancel != nil && cancel() {
			return true
		}
		iterEnd := beginStage(st, StageRoutingIteration, it)

		// Step 4/6: routing coefficients from agreement logits.
		end := beginStage(st, StageRoutingSoftmax, it)
		if mode == RouteBatchShared {
			softmaxRows(mathOps, cd[:nl*nh], sharedB, nl, nh)
			for k := 1; k < nb; k++ {
				copy(cd[k*nl*nh:(k+1)*nl*nh], cd[:nl*nh])
			}
		} else {
			for k := 0; k < nb; k++ {
				softmaxRows(mathOps, cd[k*nl*nh:(k+1)*nl*nh], bd[k*nl*nh:(k+1)*nl*nh], nl, nh)
			}
		}
		endStage(end)

		// Step 5 (Eq. 2) + Step 6 (Eq. 3): weighted aggregation over L
		// capsules and squash, sharded contiguously on the chosen
		// dimension (workers write disjoint s/v regions and every
		// accumulation order is unchanged, so results are identical to
		// the serial loop — see kernels.go).
		end = beginStage(st, StageRoutingAggregate, it)
		clear(sd)
		if dim == PartitionB {
			r.run(nb, r.aggBFn)
		} else {
			r.run(nh, r.aggHFn)
		}
		endStage(end)

		if it == iterations-1 {
			endStage(iterEnd)
			break
		}

		// Step 7 (Eq. 4): agreement accumulation. Per-sample mode
		// shards either dimension freely (disjoint logit entries); the
		// paper's batch-shared Σ_k accumulates into one matrix, which
		// B-sharding would reorder, so it runs serial under PartitionB
		// and shards the disjoint (i, j) entries under PartitionH with
		// k ascending per entry — bit-identical either way.
		end = beginStage(st, StageRoutingAgreement, it)
		if mode == RouteBatchShared {
			if dim == PartitionB {
				agreementSharedRange(r.preds, r.v, sharedB, nb, nl, nh, ch, 0, nh)
			} else {
				r.run(nh, r.agreeSharedHFn)
			}
		} else if dim == PartitionB {
			r.run(nb, r.agreeBFn)
		} else {
			r.run(nh, r.agreeHFn)
		}
		endStage(end)
		endStage(iterEnd)
	}
	if mode == RouteBatchShared {
		for k := 1; k < nb; k++ {
			copy(bd[k*nl*nh:(k+1)*nl*nh], sharedB)
		}
	}
	return false
}

//pimcaps:hotpath
func (r *router) aggSamplesRange(_, lo, hi int) {
	aggregateSamplesRange(r.math, r.preds, r.c, r.s, r.v, r.nl, r.nh, r.ch, lo, hi)
}

//pimcaps:hotpath
func (r *router) aggCapsRange(_, lo, hi int) {
	aggregateCapsRange(r.math, r.preds, r.c, r.s, r.v, r.nb, r.nl, r.nh, r.ch, lo, hi)
}

//pimcaps:hotpath
func (r *router) agreeSamplesRange(_, lo, hi int) {
	agreementSamplesRange(r.preds, r.v, r.b, r.nl, r.nh, r.ch, lo, hi)
}

//pimcaps:hotpath
func (r *router) agreeCapsRange(_, lo, hi int) {
	agreementCapsRange(r.preds, r.v, r.b, r.nb, r.nl, r.nh, r.ch, lo, hi)
}

//pimcaps:hotpath
func (r *router) agreeSharedCapsRange(_, lo, hi int) {
	agreementSharedRange(r.preds, r.v, r.b[:r.nl*r.nh], r.nb, r.nl, r.nh, r.ch, lo, hi)
}

// PredictionVectors computes Eq. 1 for a batch: û_j|i^k = u_i^k × W_ij,
// where u has shape B×L×CL and w has shape L×H×CL×CH. The result has
// shape B×L×H×CH.
func PredictionVectors(u, w *tensor.Tensor) *tensor.Tensor {
	if u.Rank() != 3 {
		panic(fmt.Sprintf("capsnet: PredictionVectors wants B×L×CL input, got %v", u.Shape()))
	}
	if w.Rank() != 4 {
		panic(fmt.Sprintf("capsnet: PredictionVectors wants L×H×CL×CH weights, got %v", w.Shape()))
	}
	nb, nl, cl := u.Dim(0), u.Dim(1), u.Dim(2)
	if w.Dim(0) != nl || w.Dim(2) != cl {
		panic(fmt.Sprintf("capsnet: weight shape %v incompatible with input %v", w.Shape(), u.Shape()))
	}
	nh, ch := w.Dim(1), w.Dim(3)
	out := tensor.New(nb, nl, nh, ch)
	ud, wd, od := u.Data(), w.Data(), out.Data()
	// Shard contiguously over the L capsules and keep the batch loop
	// innermost: each weight row is then streamed once per batch
	// instead of once per sample, which is the data reuse that makes
	// micro-batched serving cheaper per request (the paper's W_ij
	// reuse across the input set, the L-dimension row of Table 2). Per
	// sample the accumulation order over d is unchanged, so results
	// stay bit-identical to the sample-at-a-time loop, and each (k, i)
	// output row is written by exactly one worker.
	parallelChunks(nl, runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		predictionVectorsRange(ud, wd, od, nb, nl, cl, nh, ch, lo, hi, false)
	})
	return out
}
