package capsnet

import (
	"math"
	"math/rand"
	"testing"

	"pimcapsnet/internal/tensor"
)

// Regression tests for the trainer-side scratch leaks found by
// pimcaps-vet's releasecheck: TrainBatch and Evaluate each acquire a
// scratch through Forward but (before the fix) never released it, so
// every training or evaluation step abandoned its arena to the
// collector and the next step allocated a fresh slab — silently
// defeating the pooled forward path for any training workload.

// trainTestBatch builds a deterministic B×C×H×W image tensor and
// labels for a TinyConfig network.
func trainTestBatch(net *Network, nb int, seed int64) (*tensor.Tensor, []int) {
	cfg := net.Config
	batch := tensor.New(nb, cfg.InputChannels, cfg.InputH, cfg.InputW)
	rng := rand.New(rand.NewSource(seed))
	for i := range batch.Data() {
		batch.Data()[i] = rng.Float32()
	}
	labels := make([]int, nb)
	for k := range labels {
		labels[k] = rng.Intn(cfg.Classes)
	}
	return batch, labels
}

// TestTrainBatchReleasesScratch holds the pooling contract for the
// trainer: after the first step builds the scratch, further steps
// reuse it, so the arena gauge stays flat. Before TrainBatch deferred
// out.Release(), every step leaked its scratch and the gauge grew
// monotonically.
func TestTrainBatchReleasesScratch(t *testing.T) {
	net := newTestNet(t, TinyConfig(3))
	tr := NewTrainer(net, 0.05)
	batch, labels := trainTestBatch(net, 4, 21)
	tr.TrainBatch(batch, labels)
	base := net.ArenaBytes()
	if base == 0 {
		t.Fatal("ArenaBytes reports 0 after a training step")
	}
	for i := 0; i < 6; i++ {
		tr.TrainBatch(batch, labels)
	}
	if got := net.ArenaBytes(); got != base {
		t.Fatalf("arena bytes grew %d -> %d over training steps: TrainBatch is leaking its Output's scratch", base, got)
	}
}

// TestEvaluateReleasesScratch is the same contract for Evaluate, which
// had the same leak.
func TestEvaluateReleasesScratch(t *testing.T) {
	net := newTestNet(t, TinyConfig(3))
	images, labels := trainTestBatch(net, 5, 22)
	Evaluate(net, images, labels, ExactMath{})
	base := net.ArenaBytes()
	if base == 0 {
		t.Fatal("ArenaBytes reports 0 after an evaluation")
	}
	for i := 0; i < 6; i++ {
		Evaluate(net, images, labels, ExactMath{})
	}
	if got := net.ArenaBytes(); got != base {
		t.Fatalf("arena bytes grew %d -> %d over evaluations: Evaluate is leaking its Output's scratch", base, got)
	}
}

// TestTrainBitIdenticalOnReusedScratch holds the correctness side of
// releasing inside the trainer: training on a pooled scratch — dirtied
// by an earlier, larger forward pass and reused every step — updates
// weights bit-identically to a network whose pool starts cold. The
// backward pass reads out's tensors after the deferred Release is
// scheduled but before it runs, so any buffer-lifetime mistake in the
// fix would show up here as diverging weights.
func TestTrainBitIdenticalOnReusedScratch(t *testing.T) {
	cfg := TinyConfig(3)
	cold := newTestNet(t, cfg)
	warm := newTestNet(t, cfg)
	// Dirty warm's pool: a released batch-6 scratch full of stale data
	// is what every training step below will reuse.
	big, _ := trainTestBatch(warm, 6, 23)
	warm.Forward(big, ExactMath{}).Release()

	trCold := NewTrainer(cold, 0.1)
	trWarm := NewTrainer(warm, 0.1)
	for step := 0; step < 4; step++ {
		batch, labels := trainTestBatch(cold, 4, int64(30+step))
		lossCold, accCold := trCold.TrainBatch(batch, labels)
		lossWarm, accWarm := trWarm.TrainBatch(batch, labels)
		if math.Float32bits(lossCold) != math.Float32bits(lossWarm) ||
			math.Float64bits(accCold) != math.Float64bits(accWarm) {
			t.Fatalf("step %d: cold (loss %v, acc %v) vs reused scratch (loss %v, acc %v)",
				step, lossCold, accCold, lossWarm, accWarm)
		}
	}
	cd, wd := cold.Digit.Weights.Data(), warm.Digit.Weights.Data()
	for i := range cd {
		if math.Float32bits(cd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("weight %d differs after training on a reused scratch", i)
		}
	}
}
