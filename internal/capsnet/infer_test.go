package capsnet

import (
	"math"
	"sync"
	"testing"

	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/tensor"
)

func inferTestSetup(t *testing.T, classes, n int) (*Network, [][]float32) {
	t.Helper()
	net := newTestNet(t, TinyConfig(classes))
	gen := dataset.NewGenerator(dataset.Tiny(classes))
	images := make([][]float32, n)
	for i := range images {
		images[i] = make([]float32, net.ImageLen())
		gen.Sample(images[i], i%classes)
	}
	return net, images
}

// TestForwardBatchMatchesForward: ForwardBatch on a slice of images is
// bit-identical to Forward on the equivalent hand-assembled tensor.
func TestForwardBatchMatchesForward(t *testing.T) {
	net, images := inferTestSetup(t, 3, 5)
	imgLen := net.ImageLen()
	flat := make([]float32, len(images)*imgLen)
	for k, img := range images {
		copy(flat[k*imgLen:], img)
	}
	batch := tensor.FromSlice(flat, len(images), net.Config.InputChannels, net.Config.InputH, net.Config.InputW)

	direct := net.Forward(batch, ExactMath{})
	batched := net.ForwardBatch(images, ExactMath{})
	for i, v := range batched.Lengths.Data() {
		if math.Float32bits(v) != math.Float32bits(direct.Lengths.Data()[i]) {
			t.Fatalf("length %d: batched %x, direct %x", i, math.Float32bits(v), math.Float32bits(direct.Lengths.Data()[i]))
		}
	}
	for i, v := range batched.Capsules.Data() {
		if math.Float32bits(v) != math.Float32bits(direct.Capsules.Data()[i]) {
			t.Fatalf("capsule value %d differs between ForwardBatch and Forward", i)
		}
	}
}

// TestForwardBatchPerSampleIndependent: under per-sample routing, a
// sample's result does not depend on which batch it rides in.
func TestForwardBatchPerSampleIndependent(t *testing.T) {
	net, images := inferTestSetup(t, 3, 4)
	whole := net.ForwardBatch(images, ExactMath{})
	nc := net.Config.Classes
	for k, img := range images {
		solo := net.ForwardBatch([][]float32{img}, ExactMath{})
		for j := 0; j < nc; j++ {
			a := solo.Lengths.Data()[j]
			b := whole.Lengths.Data()[k*nc+j]
			if math.Float32bits(a) != math.Float32bits(b) {
				t.Fatalf("sample %d class %d: solo %x, batched %x", k, j, math.Float32bits(a), math.Float32bits(b))
			}
		}
	}
}

// TestForwardBatchConcurrent exercises the documented thread-safety
// contract: concurrent ForwardBatch calls on one Network must be
// race-free (checked under -race in CI) and deterministic.
func TestForwardBatchConcurrent(t *testing.T) {
	net, images := inferTestSetup(t, 3, 4)
	want := net.ForwardBatch(images, ExactMath{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := net.ForwardBatch(images, ExactMath{})
			for i, v := range got.Lengths.Data() {
				if math.Float32bits(v) != math.Float32bits(want.Lengths.Data()[i]) {
					t.Errorf("concurrent length %d nondeterministic", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestForwardBatchPanics validates the entry-point's input checks.
func TestForwardBatchPanics(t *testing.T) {
	net, images := inferTestSetup(t, 3, 1)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty batch", func() { net.ForwardBatch(nil, ExactMath{}) })
	mustPanic("short image", func() { net.ForwardBatch([][]float32{images[0][:3]}, ExactMath{}) })
}
