package capsnet

import (
	"math/rand"
	"testing"

	"pimcapsnet/internal/tensor"
	"pimcapsnet/internal/workload"
)

// TestMNISTConfigMatchesTable1Geometry ties the functional library to
// the workload model: the real CapsNet-MNIST network must produce
// exactly the primary-capsule count Table 1 lists for Caps-MN1.
func TestMNISTConfigMatchesTable1Geometry(t *testing.T) {
	net := newTestNet(t, MNISTConfig())
	mn1, err := workload.ByName("Caps-MN1")
	if err != nil {
		t.Fatal(err)
	}
	if net.NumPrimaryCaps() != mn1.NumL {
		t.Fatalf("functional network has %d primary capsules, Table 1 says %d", net.NumPrimaryCaps(), mn1.NumL)
	}
	if net.Digit.NumOut != mn1.NumH || net.Digit.DimOut != mn1.DimH || net.Digit.DimIn != mn1.DimL {
		t.Fatal("capsule geometry diverges from the workload model")
	}
	if net.Digit.Iterations != mn1.Iters {
		t.Fatal("routing iterations diverge from Table 1")
	}
}

// TestFullScaleMNISTForward runs one real 28×28 image through the
// full CapsNet-MNIST network — the exact inference the paper's GPU
// baseline executes — and sanity-checks the output. Heavy (~1 s), so
// skipped in -short mode.
func TestFullScaleMNISTForward(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale forward skipped in -short mode")
	}
	net := newTestNet(t, MNISTConfig())
	rng := rand.New(rand.NewSource(4))
	batch := tensor.New(1, 1, 28, 28)
	for i := range batch.Data() {
		batch.Data()[i] = rng.Float32()
	}
	out := net.Forward(batch, ExactMath{})
	if sh := out.Capsules.Shape(); sh[0] != 1 || sh[1] != 10 || sh[2] != 16 {
		t.Fatalf("capsule shape %v", sh)
	}
	for j, l := range out.Lengths.Data() {
		if l < 0 || l > 1.0000001 {
			t.Fatalf("class %d length %v outside [0,1]", j, l)
		}
	}
	recon := net.Reconstruct(out, 0, out.Predictions()[0])
	if len(recon) != 784 {
		t.Fatalf("reconstruction length %d", len(recon))
	}
	// The PE-approximated path must agree on the full-scale network
	// within the Table 5 tolerance.
	pe := net.Forward(batch, NewPEMath())
	if !pe.Lengths.AllClose(out.Lengths, 0.1, 0.02) {
		t.Fatal("full-scale PE routing diverged from exact routing")
	}
}
