package capsnet

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pimcapsnet/internal/tensor"
)

// awaitGoroutines polls until at most want goroutines are alive. Close
// joins the workers, but a joined worker can still be counted for a
// moment after its Done.
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, want at most %d (chunk workers leaked)", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// mustPanicClosed asserts that fn panics with the closed-Network
// message.
func mustPanicClosed(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		p := recover()
		msg, _ := p.(string)
		if !strings.Contains(msg, "closed Network") {
			t.Fatalf("%s after Close: recovered %v, want a closed-Network panic", name, p)
		}
	}()
	fn()
}

// TestNetworkCloseLifecycle creates, forwards and closes networks with
// a multi-worker pool: every Close joins that network's workers, so
// the goroutine count returns to its baseline, and drops its arenas,
// so ArenaBytes reads 0 — also for an Output released only after
// Close. Close is idempotent, and forwarding afterwards panics.
func TestNetworkCloseLifecycle(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		net, err := New(TinyConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		images := arenaTestImages(net, 8, int64(i))
		net.ForwardBatch(images, ExactMath{}).Release()
		late := net.ForwardBatch(images, ExactMath{})
		if runtime.NumGoroutine() <= baseline {
			t.Fatal("a forward pass at GOMAXPROCS=4 started no pool workers")
		}
		if net.ArenaBytes() == 0 {
			t.Fatal("ArenaBytes reads 0 with live scratches")
		}
		net.Close()
		net.Close()
		if net.ArenaBytes() == 0 {
			t.Fatal("Close dropped the arena of an unreleased Output")
		}
		late.Release()
		if got := net.ArenaBytes(); got != 0 {
			t.Fatalf("network %d: ArenaBytes %d after Close and Release, want 0", i, got)
		}
		mustPanicClosed(t, "ForwardBatch", func() { net.ForwardBatch(images, ExactMath{}) })
		mustPanicClosed(t, "Forward", func() { net.Forward(tensor.New(1, 1, 12, 12), ExactMath{}) })
	}
	awaitGoroutines(t, baseline)
}

// blockingTimer parks the forward pass at the first begin of one stage
// until release is closed, reporting arrival on entered.
type blockingTimer struct {
	stage            string
	entered, release chan struct{}
	once             sync.Once
}

func (b *blockingTimer) BeginStage(stage string, _ int) func() {
	if stage == b.stage {
		b.once.Do(func() {
			close(b.entered)
			<-b.release
		})
	}
	return nil
}

// TestCloseDuringForward races Close against a forward pass parked in
// a StageTimer mid-routing, as a serving watchdog leaves an abandoned
// pass behind: Close returns without waiting for the pass, the pass
// then completes on the still-running workers with bit-identical
// outputs, and the workers stop once it ends.
func TestCloseDuringForward(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	baseline := runtime.NumGoroutine()
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	images := arenaTestImages(net, 8, 21)
	wantL, _ := forwardOutputs(t, net, images)

	timer := &blockingTimer{stage: StageRoutingSoftmax, entered: make(chan struct{}), release: make(chan struct{})}
	net.Stages = timer
	type result struct {
		lengths []float32
		panicV  any
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- result{panicV: p}
			}
		}()
		out := net.ForwardBatch(images, ExactMath{})
		lengths := append([]float32(nil), out.Lengths.Data()...)
		out.Release()
		done <- result{lengths: lengths}
	}()
	<-timer.entered

	closed := make(chan struct{})
	go func() {
		net.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked on a forward pass in flight")
	}
	mustPanicClosed(t, "ForwardBatch", func() { net.ForwardBatch(images, ExactMath{}) })

	close(timer.release)
	res := <-done
	if res.panicV != nil {
		t.Fatalf("in-flight forward pass panicked after Close: %v", res.panicV)
	}
	for i := range wantL {
		if math.Float32bits(res.lengths[i]) != math.Float32bits(wantL[i]) {
			t.Fatalf("lengths[%d] = %v after Close, want %v", i, res.lengths[i], wantL[i])
		}
	}
	if got := net.ArenaBytes(); got != 0 {
		t.Fatalf("ArenaBytes %d once the in-flight Output was released, want 0", got)
	}
	awaitGoroutines(t, baseline)
}
