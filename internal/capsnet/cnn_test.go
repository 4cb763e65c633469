package capsnet

import (
	"testing"

	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/tensor"
)

func TestNewCNNValidation(t *testing.T) {
	if _, err := NewCNN(TinyCNNConfig(4)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := TinyCNNConfig(0)
	if _, err := NewCNN(bad); err == nil {
		t.Fatal("zero classes accepted")
	}
	bad2 := TinyCNNConfig(3)
	bad2.Pool = 50
	if _, err := NewCNN(bad2); err == nil {
		t.Fatal("oversized pool accepted")
	}
	bad3 := TinyCNNConfig(3)
	bad3.ConvKernel = 100
	if _, err := NewCNN(bad3); err == nil {
		t.Fatal("oversized kernel accepted")
	}
}

func TestCNNForwardShapes(t *testing.T) {
	cnn, err := NewCNN(TinyCNNConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	img := make([]float32, 144)
	logits := cnn.Logits(img)
	if len(logits) != 5 {
		t.Fatalf("logits length %d", len(logits))
	}
	if p := cnn.Predict(img); p < 0 || p >= 5 {
		t.Fatalf("prediction %d out of range", p)
	}
}

func TestCNNTrainerLearns(t *testing.T) {
	spec := dataset.Tiny(3)
	spec.Noise = 0.05
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(60)
	test := gen.Generate(30)

	cnn, err := NewCNN(TinyCNNConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	tr := &CNNTrainer{Net: cnn, LR: 0.1}
	imgLen := 144
	for ep := 0; ep < 15; ep++ {
		for s := 0; s+15 <= 60; s += 15 {
			batch := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+15)*imgLen], 15, 1, 12, 12)
			tr.TrainBatch(batch, train.Labels[s:s+15])
		}
	}
	acc := EvaluateCNN(cnn, test.Images, test.Labels)
	if acc < 0.85 {
		t.Fatalf("CNN accuracy %.2f below 0.85", acc)
	}
}

func TestCNNTrainerReducesLoss(t *testing.T) {
	spec := dataset.Tiny(2)
	gen := dataset.NewGenerator(spec)
	ds := gen.Generate(20)
	cnn, _ := NewCNN(TinyCNNConfig(2))
	tr := &CNNTrainer{Net: cnn, LR: 0.05}
	first, _ := tr.TrainBatch(ds.Images, ds.Labels)
	var last float32
	for i := 0; i < 10; i++ {
		last, _ = tr.TrainBatch(ds.Images, ds.Labels)
	}
	if last >= first {
		t.Fatalf("CNN loss did not decrease: %v → %v", first, last)
	}
}

func TestCNNTrainerLabelMismatchPanics(t *testing.T) {
	cnn, _ := NewCNN(TinyCNNConfig(2))
	tr := &CNNTrainer{Net: cnn, LR: 0.1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.TrainBatch(tensor.New(2, 1, 12, 12), []int{0})
}

// TestRotationDegradesBothModelsSanely trains the capsule network and
// the pooling-CNN baseline on upright data and evaluates on rotated
// data (the paper's §1 pose-change scenario). Both must degrade
// gracefully — the comparison example narrates the relative
// robustness; this test pins the mechanics.
func TestRotationDegradesBothModelsSanely(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative training skipped in -short mode")
	}
	spec := dataset.Tiny(3)
	spec.Noise = 0.05
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(60)
	test := gen.Generate(30)
	rotated := test.Rotated(20)

	caps := newTestNet(t, TinyConfig(3))
	capsTr := NewTrainer(caps, 1.0)
	cnn, _ := NewCNN(TinyCNNConfig(3))
	cnnTr := &CNNTrainer{Net: cnn, LR: 0.1}
	imgLen := 144
	for ep := 0; ep < 20; ep++ {
		for s := 0; s+15 <= 60; s += 15 {
			batch := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+15)*imgLen], 15, 1, 12, 12)
			capsTr.TrainBatch(batch, train.Labels[s:s+15])
			cnnTr.TrainBatch(batch, train.Labels[s:s+15])
		}
	}
	capsClean := Evaluate(caps, test.Images, test.Labels, ExactMath{})
	cnnClean := EvaluateCNN(cnn, test.Images, test.Labels)
	capsRot := Evaluate(caps, rotated.Images, rotated.Labels, ExactMath{})
	cnnRot := EvaluateCNN(cnn, rotated.Images, rotated.Labels)

	if capsClean < 0.8 || cnnClean < 0.8 {
		t.Fatalf("models failed to train: caps %.2f cnn %.2f", capsClean, cnnClean)
	}
	if capsRot > capsClean+0.1 || cnnRot > cnnClean+0.1 {
		t.Fatalf("rotation should not improve accuracy: caps %.2f→%.2f cnn %.2f→%.2f",
			capsClean, capsRot, cnnClean, cnnRot)
	}
	t.Logf("clean: caps %.2f cnn %.2f | rotated 20°: caps %.2f cnn %.2f",
		capsClean, cnnClean, capsRot, cnnRot)
}

// TestCapsulesBeatPoolingUnderRotation reproduces the paper's Fig. 1
// claim with the exact setup of examples/equivariance: trained on
// upright data, the capsule network must stay well ahead of the
// pooling CNN under a 45° test-time rotation.
func TestCapsulesBeatPoolingUnderRotation(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative training skipped in -short mode")
	}
	const classes = 4
	spec := dataset.Tiny(classes)
	spec.Noise = 0.12
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(classes * 40)
	test := gen.Generate(classes * 25)

	caps := newTestNet(t, TinyConfig(classes))
	capsTr := NewFullTrainer(caps, 0.5)
	cnn, _ := NewCNN(TinyCNNConfig(classes))
	cnnTr := &CNNTrainer{Net: cnn, LR: 0.1}
	imgLen := spec.Channels * spec.H * spec.W
	n := train.Images.Dim(0)
	const batch = 20
	for ep := 0; ep < 25; ep++ {
		for s := 0; s+batch <= n; s += batch {
			img := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+batch)*imgLen],
				batch, spec.Channels, spec.H, spec.W)
			capsTr.TrainBatch(img, train.Labels[s:s+batch])
			cnnTr.TrainBatch(img, train.Labels[s:s+batch])
		}
	}
	rotated := test.Rotated(45)
	capsAcc := Evaluate(caps, rotated.Images, rotated.Labels, ExactMath{})
	cnnAcc := EvaluateCNN(cnn, rotated.Images, rotated.Labels)
	t.Logf("45° rotation: caps %.2f vs cnn %.2f", capsAcc, cnnAcc)
	if capsAcc <= cnnAcc {
		t.Fatalf("capsules (%.2f) should beat pooling (%.2f) under rotation", capsAcc, cnnAcc)
	}
}
