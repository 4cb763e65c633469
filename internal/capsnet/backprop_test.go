package capsnet

import (
	"math"
	"math/rand"
	"testing"

	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/tensor"
)

func TestSquashBackwardMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := make([]float32, 5)
	dv := make([]float32, 5)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
		dv[i] = float32(rng.NormFloat64())
	}
	ds := make([]float32, 5)
	squashBackward(ds, dv, s)

	// Numerical: L = <squash(s), dv>; dL/ds[i] by central differences.
	loss := func() float64 {
		out := make([]float32, 5)
		squashInto(ExactMath{}, out, s)
		return float64(tensor.Dot(out, dv))
	}
	const eps = 1e-3
	for i := range s {
		orig := s[i]
		s[i] = orig + eps
		up := loss()
		s[i] = orig - eps
		down := loss()
		s[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-float64(ds[i])) > 2e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("ds[%d]: analytic %v vs numeric %v", i, ds[i], num)
		}
	}
}

func TestSquashBackwardZeroInput(t *testing.T) {
	ds := make([]float32, 3)
	squashBackward(ds, []float32{1, 2, 3}, []float32{0, 0, 0})
	for _, v := range ds {
		if v != 0 {
			t.Fatal("zero pre-activation must have zero gradient")
		}
	}
}

func TestFCBackwardMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, act := range []Activation{ActNone, ActReLU, ActSigmoid} {
		l := NewFCLayer(4, 3, act, rng)
		x := make([]float32, 4)
		mask := make([]float32, 3)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range mask {
			mask[i] = float32(rng.NormFloat64())
		}
		y := l.Forward(x)
		dW := tensor.New(3, 4)
		dB := make([]float32, 3)
		dX := fcBackward(l, x, y, mask, dW, dB)

		loss := func() float64 {
			return float64(tensor.Dot(l.Forward(x), mask))
		}
		const eps = 1e-3
		for i := range x {
			orig := x[i]
			x[i] = orig + eps
			up := loss()
			x[i] = orig - eps
			down := loss()
			x[i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-float64(dX[i])) > 3e-2*math.Max(1, math.Abs(num)) {
				t.Fatalf("act %d dX[%d]: analytic %v vs numeric %v", act, i, dX[i], num)
			}
		}
		for _, wi := range []int{0, 5, 11} {
			orig := l.Weights.Data()[wi]
			l.Weights.Data()[wi] = orig + eps
			up := loss()
			l.Weights.Data()[wi] = orig - eps
			down := loss()
			l.Weights.Data()[wi] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-float64(dW.Data()[wi])) > 3e-2*math.Max(1, math.Abs(num)) {
				t.Fatalf("act %d dW[%d]: analytic %v vs numeric %v", act, wi, dW.Data()[wi], num)
			}
		}
	}
}

// TestFullTrainerGradCheckDigitWeights numerically verifies the
// end-to-end margin-loss gradient with respect to a few capsule-layer
// and conv-layer weights on a miniature network.
func TestFullTrainerGradCheckDigitWeights(t *testing.T) {
	cfg := Config{
		InputChannels: 1, InputH: 8, InputW: 8,
		ConvChannels: 4, ConvKernel: 3, ConvStride: 1,
		PrimaryChannels: 2, PrimaryDim: 4, PrimaryKernel: 3, PrimaryStride: 2,
		Classes: 3, DigitDim: 4, RoutingIterations: 1, // constant uniform coefficients: the
		// stop-gradient analytic gradient is exact and numerically checkable
		Seed: 5,
	}
	net := newTestNet(t, cfg)
	rng := rand.New(rand.NewSource(9))
	batch := tensor.New(2, 1, 8, 8)
	for i := range batch.Data() {
		batch.Data()[i] = rng.Float32()
	}
	labels := []int{0, 2}

	lossAt := func() float64 {
		out := net.Forward(batch, ExactMath{})
		var l float32
		for k := 0; k < 2; k++ {
			l += MarginLoss(out.Lengths.Data()[k*3:(k+1)*3], labels[k])
		}
		return float64(l) / 2
	}

	// Capture analytic gradients by running TrainBatch with a known
	// LR and diffing the weights (update = -LR/nb · grad).
	check := func(name string, params *tensor.Tensor, idxs []int) {
		snapshot := params.Clone()
		netCopyLR := float32(1.0)
		tr := NewFullTrainer(net, netCopyLR)
		// Numerical gradients BEFORE the update.
		const eps = 2e-3
		numGrads := make([]float64, len(idxs))
		for n, i := range idxs {
			orig := params.Data()[i]
			params.Data()[i] = orig + eps
			up := lossAt()
			params.Data()[i] = orig - eps
			down := lossAt()
			params.Data()[i] = orig
			numGrads[n] = (up - down) / (2 * eps)
		}
		tr.TrainBatch(batch, labels)
		for n, i := range idxs {
			// delta = (LR/nb)·Σ_k grad_k, so delta/LR is the mean
			// gradient — exactly what the numeric check computes on
			// the mean loss.
			analytic := float64(snapshot.Data()[i]-params.Data()[i]) / float64(netCopyLR)
			if math.Abs(analytic-numGrads[n]) > 5e-2*math.Max(0.02, math.Abs(numGrads[n])) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, i, analytic, numGrads[n])
			}
		}
		// Restore weights for subsequent checks.
		copy(params.Data(), snapshot.Data())
	}

	check("digitW", net.Digit.Weights, []int{0, 17, 101, 333})
	check("primaryW", net.Primary.Conv.Weights, []int{0, 9, 40})
	check("convW", net.Conv.Weights, []int{0, 5, 20})
}

func TestFullTrainerLearns(t *testing.T) {
	spec := dataset.Tiny(3)
	spec.Noise = 0.05
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(45)
	test := gen.Generate(30)

	net := newTestNet(t, TinyConfig(3))
	tr := NewFullTrainer(net, 0.5)
	imgLen := 144
	for ep := 0; ep < 15; ep++ {
		for s := 0; s+15 <= 45; s += 15 {
			batch := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+15)*imgLen], 15, 1, 12, 12)
			tr.TrainBatch(batch, train.Labels[s:s+15])
		}
	}
	acc := Evaluate(net, test.Images, test.Labels, ExactMath{})
	if acc < 0.85 {
		t.Fatalf("full training accuracy %.2f below 0.85", acc)
	}
}

func TestFullTrainerWithReconstruction(t *testing.T) {
	spec := dataset.Tiny(2)
	gen := dataset.NewGenerator(spec)
	ds := gen.Generate(16)

	cfg := TinyConfig(2)
	cfg.WithDecoder = true
	net := newTestNet(t, cfg)
	tr := NewFullTrainer(net, 0.3)
	tr.ReconWeight = 1

	first, _ := tr.TrainBatch(ds.Images, ds.Labels)
	var last float32
	for i := 0; i < 12; i++ {
		last, _ = tr.TrainBatch(ds.Images, ds.Labels)
	}
	if last >= first {
		t.Fatalf("loss with reconstruction did not decrease: %v → %v", first, last)
	}

	// The decoder must actually reconstruct better than at init.
	out := net.Forward(ds.Images, ExactMath{})
	recon := net.Reconstruct(out, 0, ds.Labels[0])
	var mse float32
	for p, v := range recon {
		d := v - ds.Images.Data()[p]
		mse += d * d
	}
	mse /= float32(len(recon))
	if mse > 0.2 {
		t.Fatalf("reconstruction MSE %.3f too high after training", mse)
	}
}

func TestFullTrainerReconRequiresDecoder(t *testing.T) {
	net := newTestNet(t, TinyConfig(2))
	tr := NewFullTrainer(net, 0.1)
	tr.ReconWeight = 1
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without decoder")
		}
	}()
	tr.TrainBatch(tensor.New(1, 1, 12, 12), []int{0})
}

func TestFullTrainerLabelMismatchPanics(t *testing.T) {
	net := newTestNet(t, TinyConfig(2))
	tr := NewFullTrainer(net, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label mismatch")
		}
	}()
	tr.TrainBatch(tensor.New(2, 1, 12, 12), []int{0})
}

func TestFullTrainerBeatsCapsuleOnlyTrainer(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative training skipped in -short mode")
	}
	// With a deliberately weak random front end (few conv channels),
	// training the convolutions should outperform capsule-only
	// training given the same budget.
	spec := dataset.Tiny(5)
	spec.Noise = 0.15
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(100)
	test := gen.Generate(50)

	cfg := TinyConfig(5)
	cfg.ConvChannels = 6
	cfg.PrimaryChannels = 2

	run := func(full bool) float64 {
		net := newTestNet(t, cfg)
		imgLen := 144
		step := func(b *tensor.Tensor, l []int) {
			if full {
				tr := NewFullTrainer(net, 0.5)
				tr.TrainBatch(b, l)
			} else {
				NewTrainer(net, 0.5).TrainBatch(b, l)
			}
		}
		for ep := 0; ep < 20; ep++ {
			for s := 0; s+20 <= 100; s += 20 {
				batch := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+20)*imgLen], 20, 1, 12, 12)
				step(batch, train.Labels[s:s+20])
			}
		}
		return Evaluate(net, test.Images, test.Labels, ExactMath{})
	}
	capsOnly := run(false)
	full := run(true)
	if full+0.02 < capsOnly {
		t.Fatalf("full backprop (%.2f) should not lose to capsule-only training (%.2f)", full, capsOnly)
	}
}

// TestFullTrainerDeterministic ensures the parallelized training step
// is reproducible: identical networks and batches produce bit-identical
// updates (worker-local gradient buffers merge in fixed chunk order).
func TestFullTrainerDeterministic(t *testing.T) {
	spec := dataset.Tiny(3)
	gen := dataset.NewGenerator(spec)
	ds := gen.Generate(24)
	run := func() *Network {
		net := newTestNet(t, TinyConfig(3))
		tr := NewFullTrainer(net, 0.4)
		for i := 0; i < 3; i++ {
			tr.TrainBatch(ds.Images, ds.Labels)
		}
		return net
	}
	a, b := run(), run()
	if !a.Digit.Weights.Equal(b.Digit.Weights) ||
		!a.Conv.Weights.Equal(b.Conv.Weights) ||
		!a.Primary.Conv.Weights.Equal(b.Primary.Conv.Weights) {
		t.Fatal("parallel training is not deterministic")
	}
}

func TestFullTrainerMomentumLearns(t *testing.T) {
	spec := dataset.Tiny(3)
	spec.Noise = 0.05
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(45)
	test := gen.Generate(30)

	net := newTestNet(t, TinyConfig(3))
	tr := NewFullTrainer(net, 0.2)
	tr.Momentum = 0.9
	tr.WeightDecay = 1e-4
	imgLen := 144
	for ep := 0; ep < 12; ep++ {
		for s := 0; s+15 <= 45; s += 15 {
			batch := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+15)*imgLen], 15, 1, 12, 12)
			tr.TrainBatch(batch, train.Labels[s:s+15])
		}
	}
	acc := Evaluate(net, test.Images, test.Labels, ExactMath{})
	if acc < 0.8 {
		t.Fatalf("momentum training accuracy %.2f below 0.8", acc)
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	// Pure decay (zero-gradient data is impossible; instead compare
	// norms after identical training with and without decay).
	spec := dataset.Tiny(2)
	gen := dataset.NewGenerator(spec)
	ds := gen.Generate(8)
	norm := func(decay float32) float64 {
		net := newTestNet(t, TinyConfig(2))
		tr := NewFullTrainer(net, 0.2)
		tr.WeightDecay = decay
		for i := 0; i < 8; i++ {
			tr.TrainBatch(ds.Images, ds.Labels)
		}
		return float64(tensor.Norm(net.Digit.Weights.Data()))
	}
	if norm(0.05) >= norm(0) {
		t.Fatal("weight decay did not shrink the capsule transform weights")
	}
}
