package capsnet

import (
	"math"
	"testing"
)

// forwardOutputs copies the probabilities and capsules out of one
// ForwardBatch call (releasing the Output) so runs can be compared
// bit-for-bit.
func forwardOutputs(t *testing.T, n *Network, images [][]float32) (lengths, capsules []float32) {
	t.Helper()
	out := n.ForwardBatch(images, ExactMath{})
	defer out.Release()
	if out.Aborted {
		t.Fatal("forward pass aborted unexpectedly")
	}
	lengths = append([]float32(nil), out.Lengths.Data()...)
	capsules = append([]float32(nil), out.Capsules.Data()...)
	return lengths, capsules
}

func cancelTestImages(n *Network, count int) [][]float32 {
	images := make([][]float32, count)
	for k := range images {
		img := make([]float32, n.ImageLen())
		for i := range img {
			img[i] = float32((i+7*k)%13) / 13
		}
		images[k] = img
	}
	return images
}

// TestInactiveHooksBitIdentical is the brownout-disabled identity
// guarantee at the capsnet layer: a network with Cancel and
// IterationLimit installed but inactive (never cancelling, never
// lowering the count) produces outputs bit-identical to a network with
// the hooks nil.
func TestInactiveHooksBitIdentical(t *testing.T) {
	bare := newTestNet(t, TinyConfig(4))
	hooked := newTestNet(t, TinyConfig(4))
	hooked.Cancel = func() bool { return false }
	hooked.IterationLimit = func() int { return hooked.Config.RoutingIterations }

	images := cancelTestImages(bare, 3)
	wantL, wantC := forwardOutputs(t, bare, images)
	gotL, gotC := forwardOutputs(t, hooked, images)
	for i := range wantL {
		if math.Float32bits(wantL[i]) != math.Float32bits(gotL[i]) {
			t.Fatalf("lengths[%d]: hooked %v != bare %v (must be bit-identical)", i, gotL[i], wantL[i])
		}
	}
	for i := range wantC {
		if math.Float32bits(wantC[i]) != math.Float32bits(gotC[i]) {
			t.Fatalf("capsules[%d]: hooked %v != bare %v (must be bit-identical)", i, gotC[i], wantC[i])
		}
	}
}

// TestIterationLimitReducesIterations verifies the override sheds
// iterations (observed through the StageTimer) and clamps at 1.
func TestIterationLimitReducesIterations(t *testing.T) {
	n := newTestNet(t, TinyConfig(3))
	counter := &iterationCounter{}
	n.Stages = counter
	images := cancelTestImages(n, 2)

	run := func(limit int) int {
		counter.iters = 0
		if limit != 0 {
			n.IterationLimit = func() int { return limit }
		} else {
			n.IterationLimit = nil
		}
		out := n.ForwardBatch(images, ExactMath{})
		out.Release()
		return counter.iters
	}

	full := n.Config.RoutingIterations
	if got := run(0); got != full {
		t.Fatalf("unhooked run: %d routing iterations, want %d", got, full)
	}
	if got := run(full - 1); got != full-1 {
		t.Fatalf("limit %d: %d routing iterations, want %d", full-1, got, full-1)
	}
	if got := run(0x7fffffff); got != full {
		t.Fatalf("limit above configured count must be ignored: got %d iterations, want %d", got, full)
	}
	if got := run(-3); got != 1 {
		t.Fatalf("limit below 1 must clamp to 1: got %d iterations", got)
	}
}

// iterationCounter counts StageRoutingIteration begins.
type iterationCounter struct{ iters int }

func (c *iterationCounter) BeginStage(stage string, _ int) func() {
	if stage == StageRoutingIteration {
		c.iters++
	}
	return nil
}

// TestCancelAbortsBetweenIterations proves the cooperative-abort
// contract: a Cancel hook that fires after the first iteration stops
// the pass, Output.Aborted is set, Release returns the arena (pool
// bytes stay flat across an aborted pass), and the network serves
// bit-identical results afterwards.
func TestCancelAbortsBetweenIterations(t *testing.T) {
	n := newTestNet(t, TinyConfig(3))
	images := cancelTestImages(n, 2)

	// Baseline pass: warms the scratch pool and gives the reference
	// outputs the post-abort pass must reproduce.
	wantL, wantC := forwardOutputs(t, n, images)
	baseline := n.ArenaBytes()
	if baseline == 0 {
		t.Fatal("arena gauge is zero after a forward pass")
	}

	counter := &iterationCounter{}
	n.Stages = counter
	polls := 0
	n.Cancel = func() bool {
		polls++
		return polls > 1 // let iteration 0 run, abort before iteration 1
	}
	out := n.ForwardBatch(images, ExactMath{})
	if !out.Aborted {
		t.Fatal("Output.Aborted not set by a firing Cancel hook")
	}
	if counter.iters != 1 {
		t.Fatalf("aborted pass ran %d routing iterations, want exactly 1 before the abort", counter.iters)
	}
	if out.ExactFallbacks != nil || out.NonFinite != nil {
		t.Fatalf("aborted pass must skip the finite guard, got fallbacks=%v nonfinite=%v", out.ExactFallbacks, out.NonFinite)
	}
	out.Release()
	if got := n.ArenaBytes(); got != baseline {
		t.Fatalf("ArenaBytes %d after aborted pass, want flat at %d (arena leak)", got, baseline)
	}

	// The same network keeps serving exact results once the hook clears.
	n.Cancel = nil
	n.Stages = nil
	gotL, gotC := forwardOutputs(t, n, images)
	for i := range wantL {
		if math.Float32bits(wantL[i]) != math.Float32bits(gotL[i]) {
			t.Fatalf("lengths[%d] after abort: %v != baseline %v", i, gotL[i], wantL[i])
		}
	}
	for i := range wantC {
		if math.Float32bits(wantC[i]) != math.Float32bits(gotC[i]) {
			t.Fatalf("capsules[%d] after abort: %v != baseline %v", i, gotC[i], wantC[i])
		}
	}
	if got := n.ArenaBytes(); got != baseline {
		t.Fatalf("ArenaBytes %d after recovery pass, want %d", got, baseline)
	}
}

// TestCancelBeforeFirstIteration covers the degenerate abort: the hook
// is already true when routing starts, so zero iterations run.
func TestCancelBeforeFirstIteration(t *testing.T) {
	n := newTestNet(t, TinyConfig(3))
	counter := &iterationCounter{}
	n.Stages = counter
	n.Cancel = func() bool { return true }
	out := n.ForwardBatch(cancelTestImages(n, 1), ExactMath{})
	defer out.Release()
	if !out.Aborted {
		t.Fatal("Output.Aborted not set")
	}
	if counter.iters != 0 {
		t.Fatalf("%d routing iterations ran under an always-true Cancel, want 0", counter.iters)
	}
}
