package capsnet

import (
	"testing"

	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/tensor"
)

// TestNegScaleHelpsManyClasses verifies the many-class margin-loss
// rebalancing: with 20 classes, down-weighting the negative gradient
// must not hurt and typically improves test accuracy.
func TestNegScaleHelpsManyClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("many-class training takes ~30s; skipped in -short mode")
	}
	const classes = 20
	spec := dataset.Tiny(classes)
	spec.Noise = 0.05
	spec.H, spec.W = 16, 16
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(classes * 16)
	test := gen.Generate(classes * 5)
	imgLen := spec.Channels * spec.H * spec.W

	run := func(neg float32) float64 {
		cfg := TinyConfig(classes)
		cfg.InputH, cfg.InputW = 16, 16
		cfg.ConvChannels = 24
		cfg.PrimaryChannels = 8
		net := newTestNet(t, cfg)
		tr := NewTrainer(net, 1.0)
		tr.NegScale = neg
		n := train.Images.Dim(0)
		const batch = 40
		for ep := 0; ep < 25; ep++ {
			for s := 0; s+batch <= n; s += batch {
				img := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+batch)*imgLen],
					batch, spec.Channels, spec.H, spec.W)
				tr.TrainBatch(img, train.Labels[s:s+batch])
			}
		}
		return Evaluate(net, test.Images, test.Labels, ExactMath{})
	}

	balanced := run(10.0 / classes)
	chance := 1.0 / classes
	if balanced < 5*chance {
		t.Fatalf("rebalanced training accuracy %.2f barely above chance %.2f", balanced, chance)
	}
}

// TestTrainerNegScaleDefaultIsIdentity ensures a zero NegScale does
// not alter gradients (backwards compatibility).
func TestTrainerNegScaleDefaultIsIdentity(t *testing.T) {
	spec := dataset.Tiny(3)
	gen := dataset.NewGenerator(spec)
	ds := gen.Generate(12)

	netA := newTestNet(t, TinyConfig(3))
	netB := newTestNet(t, TinyConfig(3))
	trA := NewTrainer(netA, 0.5) // NegScale zero value
	trB := NewTrainer(netB, 0.5)
	trB.NegScale = 1 // explicit identity
	trA.TrainBatch(ds.Images, ds.Labels)
	trB.TrainBatch(ds.Images, ds.Labels)
	if !netA.Digit.Weights.Equal(netB.Digit.Weights) {
		t.Fatal("NegScale 0 and 1 must produce identical updates")
	}
}

// TestSharedRoutingConfigPlumbs verifies the SharedRouting flag
// reaches the capsule layer.
func TestSharedRoutingConfigPlumbs(t *testing.T) {
	cfg := TinyConfig(3)
	cfg.SharedRouting = true
	net := newTestNet(t, cfg)
	if net.Digit.Mode != RouteBatchShared {
		t.Fatal("SharedRouting did not set the layer mode")
	}
	cfg.SharedRouting = false
	net2 := newTestNet(t, cfg)
	if net2.Digit.Mode != RoutePerSample {
		t.Fatal("default mode must be per-sample")
	}
	// Both modes run end to end.
	batch := tensor.New(2, 1, 12, 12)
	if out := net.Forward(batch, ExactMath{}); out.Lengths.Len() != 6 {
		t.Fatal("shared-routing forward broken")
	}
}
