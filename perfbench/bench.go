package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/loadgen"
	"pimcapsnet/internal/serve"
	"pimcapsnet/internal/tensor"
	"pimcapsnet/internal/workload"
)

// warmRequests is how many working-set images set-up sends, one at a
// time, to warm a served workload.
const warmRequests = 32

// benchWorkload is one benchmark workload: its model, inputs, the set-up
// setup_s times, and the measured phases.
type benchWorkload struct {
	name string
	cfg  capsnet.Config
	data dataset.Spec
	// images is the working-set size: how many distinct images a run
	// rotates through by request (or sample) index.
	images int
	// setup builds the networks and servers and warms them up. tr is
	// nil in probes and untraced runs; otherwise the span hooks are
	// installed (switched off until a traced phase turns them on).
	setup func(b *bench, tr *tracer) error
	// measure runs the measured phases and fills res.
	measure func(b *bench, res *result) error
}

func workloadNames() []string { return sortedKeys(workloads) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// bench carries one run's inputs and the system built by set-up.
type bench struct {
	wl      *benchWorkload
	seed    int64
	seconds float64
	tr      *tracer // non-nil in traced runs

	images [][]float32 // working set
	refs   []reference // reference outputs, one per image
	bodies [][]byte    // classify request bodies, one per image
	want   [][]byte    // reference reply prefixes, one per image

	nets       []*capsnet.Network
	tees       []*stageTee
	front      http.Handler // the handler clients call
	replicas   []string
	home       []string // cluster.Home replica per image
	closers    []func()
	mismatches int
}

func (b *bench) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
}

// workingSet draws the run's distinct input images from the workload's
// dataset, seeded by the run seed.
func workingSet(w *benchWorkload, seed int64) [][]float32 {
	spec := w.data
	spec.Seed = seed
	g := dataset.NewGenerator(spec)
	imgs := make([][]float32, w.images)
	for i := range imgs {
		imgs[i] = make([]float32, spec.Channels*spec.H*spec.W)
		g.Sample(imgs[i], i%spec.Classes)
	}
	return imgs
}

// reference is one image's expected output.
type reference struct {
	Lengths  []float32 `json:"lengths"`
	Capsules []float32 `json:"capsules"`
}

// references computes the expected outputs on a separately built
// network with the same Config. Batching is bit-identical by contract,
// so batches of eight give every image its exact output.
func references(cfg capsnet.Config, images [][]float32) ([]reference, error) {
	net, err := capsnet.New(cfg)
	if err != nil {
		return nil, err
	}
	nc, dd := cfg.Classes, cfg.DigitDim
	refs := make([]reference, 0, len(images))
	for lo := 0; lo < len(images); lo += 8 {
		hi := min(lo+8, len(images))
		out := net.ForwardBatch(images[lo:hi], capsnet.ExactMath{})
		for k := 0; k < hi-lo; k++ {
			refs = append(refs, reference{
				Lengths:  append([]float32(nil), out.Lengths.Data()[k*nc:(k+1)*nc]...),
				Capsules: append([]float32(nil), out.Capsules.Data()[k*nc*dd:(k+1)*nc*dd]...),
			})
		}
		out.Release()
	}
	return refs, nil
}

// encodeRequests encodes each image's classify request body.
func (b *bench) encodeRequests() error {
	for _, img := range b.images {
		body, err := json.Marshal(serve.ClassifyRequest{Image: img})
		if err != nil {
			return err
		}
		b.bodies = append(b.bodies, body)
	}
	return nil
}

// encodeReplies encodes each image's reference reply up to its
// batch-size field.
func (b *bench) encodeReplies() error {
	nc, dd := b.wl.cfg.Classes, b.wl.cfg.DigitDim
	for _, ref := range b.refs {
		poses := make([][]float32, nc)
		for j := range poses {
			poses[j] = ref.Capsules[j*dd : (j+1)*dd]
		}
		var buf bytes.Buffer
		err := json.NewEncoder(&buf).Encode(serve.ClassifyResponse{
			Class: tensor.ArgMax(ref.Lengths), Probs: ref.Lengths, Poses: poses,
		})
		if err != nil {
			return err
		}
		want, ok := bytes.CutSuffix(buf.Bytes(), []byte("0}\n"))
		if !ok {
			return fmt.Errorf("unexpected reply encoding %q", buf.Bytes())
		}
		b.want = append(b.want, want)
	}
	return nil
}

// sameOutput reports whether sample k of out equals reference ref bit
// for bit.
func sameOutput(out *capsnet.Output, k int, ref reference) bool {
	nc := len(ref.Lengths)
	dd := len(ref.Capsules) / nc
	return sameBits(out.Lengths.Data()[k*nc:(k+1)*nc], ref.Lengths) &&
		sameBits(out.Capsules.Data()[k*nc*dd:(k+1)*nc*dd], ref.Capsules)
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// latencyBuckets are geometric histogram bounds 2% apart from 0.1 ms to
// 60 s, so open-loop quantiles resolve to about 1%.
var latencyBuckets = func() []float64 {
	var bs []float64
	for v := 1e-4; v < 60; v *= 1.02 {
		bs = append(bs, v)
	}
	return bs
}()

// phase is one open-loop load phase's outcome.
type phase struct {
	name string
	rate float64
	res  *loadgen.Result
	wall time.Duration
}

func (p phase) quantileMs(q float64) float64 { return p.res.Latency.Quantile(q) * 1e3 }

// latenessFrac is the load generator's maximum lateness over the
// phase's median latency: near or above 1, one stall of the generator
// was as long as a median request.
func (p phase) latenessFrac() float64 { return p.res.MaxLateness * 1e3 / p.quantileMs(0.5) }

func (p phase) String() string {
	r := p.res
	return fmt.Sprintf("%-10s rate %7.2f/s  sent %5d ok %5d shed %3d failed %3d  p50 %8.3f p95 %8.3f p99 %8.3f ms  max lateness %7.3f ms",
		p.name, p.rate, r.Done, r.OK, r.Shed, r.Failed, p.quantileMs(0.5), p.quantileMs(0.95), p.quantileMs(0.99),
		r.MaxLateness*1e3)
}

// openLoop replays a Poisson schedule against the front handler, with
// latency measured from each request's scheduled arrival. A mismatching
// reply counts as failed; tracing covers the phase when traced is set.
func (b *bench) openLoop(name string, rate float64, schedule []float64, traced bool) phase {
	t := &target{h: b.front, bodies: b.bodies, want: b.want, phase: name + "-"}
	if b.tr != nil {
		t.tr = b.tr
		b.tr.on.Store(traced)
		defer b.tr.on.Store(false)
	}
	start := time.Now()
	res := loadgen.Run(context.Background(), t, loadgen.Options{Schedule: schedule, Buckets: latencyBuckets})
	p := phase{name: name, rate: rate, res: res, wall: time.Since(start)}
	b.mismatches += int(t.bad.Load())
	fmt.Println(p)
	return p
}

// closedPhase is one closed-loop load phase's outcome.
type closedPhase struct {
	name             string
	callers          int
	sent, ok, failed int
	lat              []float64 // ms, one per request
	wall             time.Duration
}

func (p closedPhase) String() string {
	return fmt.Sprintf("%-10s %d callers  sent %5d ok %5d failed %3d in %.2f s: %.3f ok/s  p50 %8.3f p95 %8.3f p99 %8.3f ms",
		p.name, p.callers, p.sent, p.ok, p.failed, p.wall.Seconds(), float64(p.ok)/p.wall.Seconds(),
		median(p.lat), quantile(p.lat, 0.95), quantile(p.lat, 0.99))
}

// closedLoop runs callers concurrent clients against the front handler
// for the given time, each sending its next request as soon as the
// previous one returns. A reply that is not a correct 200 counts as
// failed; tracing covers the phase when traced is set.
func (b *bench) closedLoop(name string, callers int, seconds float64, traced bool) closedPhase {
	t := &target{h: b.front, bodies: b.bodies, want: b.want, phase: name + "-"}
	if b.tr != nil {
		t.tr = b.tr
		b.tr.on.Store(traced)
		defer b.tr.on.Store(false)
	}
	var next atomic.Int64
	lat := make([][]float64, callers)
	failed := make([]int, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < seconds {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				code, err := t.Do(context.Background(), i)
				lat[c] = append(lat[c], ms(time.Since(t0)))
				if err != nil || code != http.StatusOK {
					failed[c]++
				}
			}
		}()
	}
	wg.Wait()
	p := closedPhase{name: name, callers: callers, wall: time.Since(start)}
	for c := range callers {
		p.lat = append(p.lat, lat[c]...)
		p.failed += failed[c]
	}
	p.sent = len(p.lat)
	p.ok = p.sent - p.failed
	b.mismatches += int(t.bad.Load())
	fmt.Println(p)
	return p
}

// poisson returns duration seconds of Poisson arrival times at rate
// from the run seed.
func (b *bench) poisson(rate, duration float64) []float64 {
	return workload.NewShape(workload.ShapeConstant, rate).Schedule(duration, b.seed)
}

// warm sends the first warmRequests working-set images once, one at a
// time, and fails unless each reply is a 200 (and, once references
// exist, correct).
func (b *bench) warm() error {
	t := &target{h: b.front, bodies: b.bodies, want: b.want, phase: "warm-"}
	for k := range min(warmRequests, len(b.images)) {
		code, err := t.Do(context.Background(), k)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d, %v", k, code, err)
		}
	}
	return nil
}
