package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/cluster"
	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/serve"
)

var workloads = map[string]*benchWorkload{
	"paper-offline": {
		name: "paper-offline", cfg: capsnet.MNISTConfig(), data: dataset.MNISTLike(), images: 32,
		setup: setupOffline, measure: measureOffline,
	},
	"tiny-light": {
		name: "tiny-light", cfg: capsnet.TinyConfig(10), data: dataset.Tiny(10), images: 32,
		setup: setupTiny, measure: measureTiny,
	},
	"router-saturated": {
		// The dispatcher places each image on its cluster.Home replica.
		// With 32 images the split was as uneven as 23:9 for some seeds,
		// and the tier's capacity fell by 18% on those; 256 images keep
		// the split within a few percent of even.
		name: "router-saturated", cfg: routingHeavy(), data: dataset.MNISTLike(), images: 256,
		setup: setupRouter, measure: measureRouter,
	},
}

// routingHeavy is the routing-dominated model of the repository's
// serving throughput benchmark: a light conv front end feeding 1152
// primary capsules into ten 16-D class capsules.
func routingHeavy() capsnet.Config {
	return capsnet.Config{
		InputChannels: 1, InputH: 28, InputW: 28,
		ConvChannels: 8, ConvKernel: 5, ConvStride: 1,
		PrimaryChannels: 32, PrimaryDim: 8, PrimaryKernel: 3, PrimaryStride: 2,
		Classes: 10, DigitDim: 16, RoutingIterations: 3,
		Seed: 1,
	}
}

// ---- paper-offline: one closed-loop caller, ForwardBatch on batches of 8.

const offlineBatch = 8

func setupOffline(b *bench, _ *tracer) error {
	net, err := capsnet.New(b.wl.cfg)
	if err != nil {
		return err
	}
	b.nets = []*capsnet.Network{net}
	out := net.ForwardBatch(b.offlineImages(0), capsnet.ExactMath{})
	out.Release()
	return nil
}

func (b *bench) offlineImages(batch int) [][]float32 {
	imgs := make([][]float32, offlineBatch)
	for k := range imgs {
		imgs[k] = b.images[(batch*offlineBatch+k)%len(b.images)]
	}
	return imgs
}

// offlineLoop runs ForwardBatch back to back for the given time,
// checking every sample, and returns each call's duration. With a tee
// each call is recorded as a batch.
func (b *bench) offlineLoop(seconds float64, tee *stageTee, res *result) (calls []time.Duration, wall time.Duration) {
	net := b.nets[0]
	start := time.Now()
	for batch := 0; time.Since(start).Seconds() < seconds; batch++ {
		imgs := b.offlineImages(batch)
		var bt *batchTrace
		if tee != nil {
			bt = b.tr.newBatch("offline", len(imgs))
			tee.cur.Store(bt)
		}
		t0 := time.Now()
		out := net.ForwardBatch(imgs, capsnet.ExactMath{})
		t1 := time.Now()
		if bt != nil {
			tee.cur.Store(nil)
			bt.fwd = span{t0, t1}
		}
		calls = append(calls, t1.Sub(t0))
		for k := range imgs {
			res.Attempted++
			if !sameOutput(out, k, b.refs[(batch*offlineBatch+k)%len(b.refs)]) {
				res.Failed++
				b.mismatches++
			}
		}
		out.Release()
	}
	return calls, time.Since(start)
}

func measureOffline(b *bench, res *result) error {
	before := readRuntime()
	calls, wall := b.offlineLoop(b.seconds, nil, res)
	after := readRuntime()
	samples := len(calls) * offlineBatch
	p50 := median(msAll(calls))
	fmt.Printf("offline    %d batches of %d in %.2f s: %.3f samples/s, batch p50 %.2f ms\n",
		len(calls), offlineBatch, wall.Seconds(), float64(samples)/wall.Seconds(), p50)
	m := res.Metrics
	if b.tr == nil {
		m.set("throughput_sps", float64(samples)/wall.Seconds(), "1/s")
		m.set("latency_p50_ms", p50, "ms")
		return setPeakRSS(m)
	}
	// Traced run: the untraced phase above is the baseline; the same
	// loop now runs with the tee installed.
	runtimeMetrics(m, before, after, samples, wall)
	// A closed loop has no schedule to fall behind.
	m.set("loadgen.lateness_frac", 0, "ratio")
	net := b.nets[0]
	tee := &stageTee{}
	net.Stages = tee
	b.tr.on.Store(true)
	tcalls, twall := b.offlineLoop(b.seconds, tee, res)
	b.tr.on.Store(false)
	b.layerMetrics(m, twall)
	m.set("trace.overhead_frac", median(msAll(tcalls))/p50-1, "ratio")
	hotMetrics(m, b.hotForward(net, tee, 3))
	return nil
}

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// hotForward times n closed-loop single-image forward passes on an
// idle network, recorded through tee but kept out of the trace.
func (b *bench) hotForward(net *capsnet.Network, tee *stageTee, n int) []*batchTrace {
	var out []*batchTrace
	for i := 0; i < n; i++ {
		bt := &batchTrace{replica: "hot", size: 1}
		tee.cur.Store(bt)
		t0 := time.Now()
		o := net.ForwardBatch(b.images[i%len(b.images):i%len(b.images)+1], capsnet.ExactMath{})
		bt.fwd = span{t0, time.Now()}
		tee.cur.Store(nil)
		o.Release()
		out = append(out, bt)
	}
	return out
}

// ---- serving: replicas behind serve.New, driven open-loop in process.

// newReplica builds one network and its default-config server. With a
// tracer the replica's handler is wrapped and a tee StageTimer and a
// PreRunHook record its batches.
func (b *bench) newReplica(name string, tr *tracer) (http.Handler, error) {
	net, err := capsnet.New(b.wl.cfg)
	if err != nil {
		return nil, err
	}
	var cfg serve.Config
	var tee *stageTee
	if tr != nil {
		tee = &stageTee{}
		cfg.PreRunHook = tr.preRunHook(name, tee)
	}
	srv, err := serve.New(net, capsnet.ExactMath{}, cfg)
	if err != nil {
		return nil, err
	}
	b.closers = append(b.closers, func() { srv.Close(context.Background()) })
	b.nets = append(b.nets, net)
	b.replicas = append(b.replicas, name)
	h := srv.Handler()
	if tr != nil {
		tee.inner = net.Stages
		net.Stages = tee
		b.tees = append(b.tees, tee)
		h = tr.wrap(name, h)
	}
	return h, nil
}

// tinyRate is tiny-light's Poisson arrival rate, well below one
// replica's capacity.
const tinyRate = 300

func setupTiny(b *bench, tr *tracer) error {
	h, err := b.newReplica("r0", tr)
	if err != nil {
		return err
	}
	b.front = h
	return b.warm()
}

func measureTiny(b *bench, res *result) error {
	sched := b.poisson(tinyRate, b.seconds)
	before := readRuntime()
	p := b.openLoop("light", tinyRate, sched, false)
	after := readRuntime()
	res.Attempted, res.Failed = p.res.Done, p.res.Done-p.res.OK
	m := res.Metrics
	if b.tr == nil {
		m.set("latency_p50_ms", p.quantileMs(0.5), "ms")
		m.set("throughput_sps", float64(p.res.OK)/p.wall.Seconds(), "1/s")
		return setPeakRSS(m)
	}
	runtimeMetrics(m, before, after, p.res.Done, p.wall)
	m.set("loadgen.lateness_frac", p.latenessFrac(), "ratio")
	tp := b.openLoop("light-tr", tinyRate, sched, true)
	res.Attempted += tp.res.Done
	res.Failed += tp.res.Done - tp.res.OK
	b.layerMetrics(m, tp.wall)
	m.set("trace.overhead_frac", tp.quantileMs(0.5)/p.quantileMs(0.5)-1, "ratio")
	hotMetrics(m, b.hotForward(b.nets[0], b.tees[0], 200))
	return nil
}

// layerMetrics derives the capsnet, serve and cluster metrics of the
// traced phases. Every workload reports all of them: on a workload that
// bypasses serve or the dispatcher, that layer's metrics read 0.
func (b *bench) layerMetrics(m metrics, wall time.Duration) {
	reqs, batches := b.tr.snapshot()
	capsnetMetrics(m, b.wl.cfg, batches, wall, max(1, len(b.replicas)))
	serveMetrics(m, reqs, batches)
	clusterMetrics(m, reqs, b.home, b.replicas)
	m.set("trace.serve_coverage_frac", coverage(reqs), "ratio")
}

// ---- router-saturated: a cluster.Dispatcher over two in-process
// replicas, driven closed loop.

const (
	routerReplicas = 2
	// probeInterval is the subprocess Manager's default /readyz poll.
	probeInterval = 250 * time.Millisecond
	// saturationCallers offers each replica enough concurrent requests
	// to fill a default-size batch: one caller per slot.
	saturationCallers = routerReplicas * serve.DefaultMaxBatch
	// saturationWarmSeconds of closed-loop load precede the measured
	// phase, so the full-batch buffers exist before it starts.
	saturationWarmSeconds = 1
)

func setupRouter(b *bench, tr *tracer) error {
	raw := make([]http.Handler, 0, routerReplicas)
	routed := map[string]http.Handler{}
	for r := 0; r < routerReplicas; r++ {
		name := "r" + strconv.Itoa(r)
		h, err := b.newReplica(name, tr)
		if err != nil {
			return err
		}
		raw = append(raw, h)
		routed[name] = h
	}
	pool := newProbePool(b.replicas, raw, probeInterval)
	b.closers = append(b.closers, pool.Close)
	d, err := cluster.NewDispatcher(cluster.DispatcherConfig{
		Pool:   pool,
		Client: &http.Client{Transport: &transport{replicas: routed, tr: tr}},
	})
	if err != nil {
		return err
	}
	b.front = d.Handler()
	if tr != nil {
		b.front = tr.wrap("", b.front)
	}
	snap := pool.Snapshot()
	b.home = make([]string, len(b.bodies))
	for k, body := range b.bodies {
		b.home[k] = snap[cluster.Home(cluster.Key(body), snap)].Name
	}
	return b.warm()
}

func measureRouter(b *bench, res *result) error {
	homes := map[string]int{}
	for _, h := range b.home {
		homes[h]++
	}
	fmt.Printf("placement  working-set images per cluster.Home replica: %v\n", homes)
	w := b.closedLoop("sat-warm", saturationCallers, saturationWarmSeconds, false)
	before := readRuntime()
	p := b.closedLoop("saturated", saturationCallers, b.seconds, false)
	after := readRuntime()
	res.Attempted, res.Failed = w.sent+p.sent, w.failed+p.failed
	m := res.Metrics
	if b.tr == nil {
		m.set("latency_p50_ms", median(p.lat), "ms")
		m.set("throughput_sps", float64(p.ok)/p.wall.Seconds(), "1/s")
		return setPeakRSS(m)
	}
	runtimeMetrics(m, before, after, p.sent, p.wall)
	// A closed loop has no schedule to fall behind.
	m.set("loadgen.lateness_frac", 0, "ratio")
	tp := b.closedLoop("saturated-tr", saturationCallers, b.seconds, true)
	res.Attempted += tp.sent
	res.Failed += tp.failed
	b.layerMetrics(m, tp.wall)
	m.set("trace.overhead_frac", median(tp.lat)/median(p.lat)-1, "ratio")
	hotMetrics(m, b.hotForward(b.nets[0], b.tees[0], 20))
	return nil
}
