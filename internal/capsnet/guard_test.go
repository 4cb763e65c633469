package capsnet

import (
	"math"
	"testing"

	"pimcapsnet/internal/tensor"
)

// nanExpMath corrupts only the softmax exponential (evaluated on the
// routing dispatcher goroutine, so no cross-worker state): every Exp
// returns NaN, poisoning the coefficients and therefore every output
// capsule — the worst case the approximate PE path can degrade to.
type nanExpMath struct{ ExactMath }

func (nanExpMath) Exp(float32) float32 { return float32(math.NaN()) }

func testBatch(t *testing.T, n *Network, nb int) *tensor.Tensor {
	t.Helper()
	batch := tensor.New(nb, n.Config.InputChannels, n.Config.InputH, n.Config.InputW)
	for i := range batch.Data() {
		batch.Data()[i] = float32(i%17) / 17
	}
	return batch
}

// TestFiniteGuardFallsBackToExact: when the approximate math path
// produces non-finite capsules, every affected sample is re-routed
// with exact math and ends up bit-identical to a fully exact forward
// pass — NaN never reaches the class probabilities.
func TestFiniteGuardFallsBackToExact(t *testing.T) {
	net := newTestNet(t, TinyConfig(3))
	batch := testBatch(t, net, 3)

	exact := net.Forward(batch, ExactMath{})
	if len(exact.ExactFallbacks) != 0 || len(exact.NonFinite) != 0 {
		t.Fatalf("exact forward degraded: fallbacks %v, non-finite %v", exact.ExactFallbacks, exact.NonFinite)
	}

	before := net.RoutingFallbacks()
	got := net.Forward(batch, nanExpMath{})
	if len(got.ExactFallbacks) != 3 {
		t.Fatalf("fallbacks %v, want all 3 samples", got.ExactFallbacks)
	}
	if len(got.NonFinite) != 0 {
		t.Fatalf("samples %v still non-finite after exact fallback", got.NonFinite)
	}
	if net.RoutingFallbacks() != before+3 {
		t.Fatalf("fallback counter %d, want %d", net.RoutingFallbacks(), before+3)
	}
	for i, v := range got.Lengths.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("class probability %d is %v after fallback", i, v)
		}
	}
	if !got.Capsules.Equal(exact.Capsules) {
		t.Fatal("fallback capsules differ from a fully exact forward pass")
	}
}

// TestFiniteGuardReportsUnrecoverable: when the routing inputs
// themselves are corrupt (injected NaN), exact math cannot recover
// and the sample must be reported in NonFinite — per sample, leaving
// clean batchmates untouched.
func TestFiniteGuardReportsUnrecoverable(t *testing.T) {
	net := newTestNet(t, TinyConfig(3))
	batch := testBatch(t, net, 3)
	perSample := net.NumPrimaryCaps() * net.Config.PrimaryDim
	net.RoutingInputHook = func(data []float32) {
		// Poison only sample 1's routing inputs.
		data[perSample+2] = float32(math.NaN())
	}
	got := net.Forward(batch, NewPEMath())
	if len(got.NonFinite) != 1 || got.NonFinite[0] != 1 {
		t.Fatalf("non-finite samples %v, want [1]", got.NonFinite)
	}
	nc := net.Config.Classes
	for _, k := range []int{0, 2} {
		for j := 0; j < nc; j++ {
			v := got.Lengths.Data()[k*nc+j]
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("clean sample %d has non-finite probability %v", k, v)
			}
		}
	}
}

// TestFiniteGuardZeroOverheadPath: with exact math and no hook, a
// forward pass reports no degradation and the hook field stays nil —
// the disabled-injector configuration is the production one.
func TestFiniteGuardZeroOverheadPath(t *testing.T) {
	net := newTestNet(t, TinyConfig(2))
	if net.RoutingInputHook != nil {
		t.Fatal("hook armed by default")
	}
	out := net.Forward(testBatch(t, net, 2), ExactMath{})
	if out.ExactFallbacks != nil || out.NonFinite != nil {
		t.Fatalf("degradation on the clean path: %v / %v", out.ExactFallbacks, out.NonFinite)
	}
	if net.RoutingFallbacks() != 0 {
		t.Fatalf("fallback counter %d on the clean path", net.RoutingFallbacks())
	}
}
