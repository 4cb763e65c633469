package main

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"pimcapsnet/internal/capsnet"
)

// reportedStages are the capsnet stages with per-sample self times;
// routing_iteration only brackets the three routing sub-stages.
var reportedStages = []string{
	capsnet.StageConv, capsnet.StagePrimaryCaps, capsnet.StagePredictionVectors,
	capsnet.StageRoutingSoftmax, capsnet.StageRoutingAggregate, capsnet.StageRoutingAgreement,
}

// layerCost is one GEMM-shaped stage's work per sample, computed from
// the Config: multiply-accumulates, and the float32 bytes of its input,
// weights and output tensors (derived from tensor sizes, not measured).
type layerCost struct{ macs, bytes float64 }

func stageCosts(c capsnet.Config) map[string]layerCost {
	oh := (c.InputH-c.ConvKernel)/c.ConvStride + 1
	ow := (c.InputW-c.ConvKernel)/c.ConvStride + 1
	ph := (oh-c.PrimaryKernel)/c.PrimaryStride + 1
	pw := (ow-c.PrimaryKernel)/c.PrimaryStride + 1
	primOut := c.PrimaryChannels * c.PrimaryDim
	numL := ph * pw * c.PrimaryChannels
	f := func(n int) float64 { return 4 * float64(n) }
	return map[string]layerCost{
		capsnet.StageConv: {
			macs:  float64(oh * ow * c.ConvChannels * c.InputChannels * c.ConvKernel * c.ConvKernel),
			bytes: f(c.InputChannels*c.InputH*c.InputW + c.ConvChannels*c.InputChannels*c.ConvKernel*c.ConvKernel + c.ConvChannels*oh*ow),
		},
		capsnet.StagePrimaryCaps: {
			macs:  float64(ph * pw * primOut * c.ConvChannels * c.PrimaryKernel * c.PrimaryKernel),
			bytes: f(c.ConvChannels*oh*ow + primOut*c.ConvChannels*c.PrimaryKernel*c.PrimaryKernel + primOut*ph*pw),
		},
		capsnet.StagePredictionVectors: {
			macs:  float64(numL * c.Classes * c.DigitDim * c.PrimaryDim),
			bytes: f(numL*c.PrimaryDim + numL*c.Classes*c.DigitDim*c.PrimaryDim + numL*c.Classes*c.DigitDim),
		},
	}
}

// capsnetMetrics derives the capsnet layer's metrics from the recorded
// forward passes. wall is the traced phase length and replicas the
// number of networks serving it (for the busy fraction).
func capsnetMetrics(m metrics, cfg capsnet.Config, batches []*batchTrace, wall time.Duration, replicas int) {
	self := map[string]time.Duration{}
	var fwd, stageSum time.Duration
	samples := 0
	for _, b := range batches {
		samples += b.size
		fwd += b.fwd.dur()
		for i, d := range selfTimes(b.stages) {
			self[b.stages[i].name] += d
			stageSum += d
		}
	}
	if len(batches) == 0 || samples == 0 {
		return
	}
	for _, s := range reportedStages {
		m.set("capsnet."+s+".ms_per_sample", ms(self[s])/float64(samples), "ms")
	}
	for s, c := range stageCosts(cfg) {
		sec := self[s].Seconds()
		m.set("capsnet."+s+".gmac_per_s", c.macs*float64(samples)/sec/1e9, "GMAC/s")
		m.set("capsnet."+s+".gbyte_per_s", c.bytes*float64(samples)/sec/1e9, "GB/s")
	}
	m.set("capsnet.forward.ms_per_batch", ms(fwd)/float64(len(batches)), "ms")
	m.set("capsnet.forward.ms_per_sample", ms(fwd)/float64(samples), "ms")
	m.set("capsnet.forward.busy_frac", fwd.Seconds()/(wall.Seconds()*float64(replicas)), "ratio")
	m.set("capsnet.stage_self_sum_frac", stageSum.Seconds()/fwd.Seconds(), "ratio")
}

// hotMetrics reports a hot, closed-loop forward pass measured on an
// idle network, the reference a served forward pass is compared with.
func hotMetrics(m metrics, batches []*batchTrace) {
	var fwds []float64
	var pred time.Duration
	samples := 0
	for _, b := range batches {
		fwds = append(fwds, ms(b.fwd.dur())/float64(b.size))
		samples += b.size
		for i, d := range selfTimes(b.stages) {
			if b.stages[i].name == capsnet.StagePredictionVectors {
				pred += d
			}
		}
	}
	if samples == 0 {
		return
	}
	m.set("capsnet.forward.hot_ms_per_sample", median(fwds), "ms")
	m.set("capsnet.prediction_vectors.hot_ms_per_sample", ms(pred)/float64(samples), "ms")
}

func shedCode(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// serveMetrics derives the serve layer's metrics: the share of the
// client-side latency that requests wait in serve beyond their own
// batch's forward pass, batching and shedding. Every metric reads 0 on
// a workload that bypasses serve, so each workload reports all of them.
func serveMetrics(m metrics, reqs []*reqTrace, batches []*batchTrace) {
	var res, client []float64
	shed := 0
	for _, r := range reqs {
		for _, h := range r.serve {
			res = append(res, ms(h.dur()))
			if shedCode(h.code) {
				shed++
			}
		}
		if !r.client.start.IsZero() {
			client = append(client, ms(r.client.dur()))
		}
	}
	if len(res) == 0 || len(batches) == 0 || len(client) == 0 {
		for _, name := range []string{"serve.wait_frac", "serve.shed_frac"} {
			m.set(name, 0, "ratio")
		}
		m.set("serve.batch_size.mean", 0, "count")
		m.set("serve.batches", 0, "count")
		return
	}
	var weighted float64
	samples := 0
	for _, b := range batches {
		weighted += float64(b.size) * ms(b.fwd.dur())
		samples += b.size
	}
	wait := mean(res) - weighted/float64(samples)
	fmt.Printf("serve      residence p50 %.3f ms, mean wait %.3f ms of a mean client latency of %.3f ms\n",
		median(res), wait, mean(client))
	m.set("serve.wait_frac", wait/mean(client), "ratio")
	m.set("serve.batch_size.mean", float64(samples)/float64(len(batches)), "count")
	m.set("serve.batches", float64(len(batches)), "count")
	m.set("serve.shed_frac", float64(shed)/float64(len(res)), "ratio")
}

// clusterMetrics derives the dispatcher's metrics: its self time
// (residence minus attempt round trips) as a share of the client-side
// latency, wasted attempts, affinity and balance. home maps a
// working-set image to its cluster.Home replica. Every metric reads 0 on
// a workload that bypasses the dispatcher.
func clusterMetrics(m metrics, reqs []*reqTrace, home []string, replicas []string) {
	var self, frac []float64
	attempts, homeFirst, routed := 0, 0, 0
	per := map[string]int{}
	for _, r := range reqs {
		if r.dispatch.start.IsZero() || r.client.start.IsZero() {
			continue
		}
		routed++
		spans := make([]span, len(r.attempts))
		first := -1
		for i, a := range r.attempts {
			spans[i] = a.span
			per[a.replica]++
			if first < 0 || a.start.Before(r.attempts[first].start) {
				first = i
			}
		}
		attempts += len(r.attempts)
		if first >= 0 && r.image >= 0 && r.attempts[first].replica == home[r.image] {
			homeFirst++
		}
		d := r.dispatch.dur() - covered(r.dispatch, spans)
		self = append(self, ms(d))
		frac = append(frac, d.Seconds()/r.client.dur().Seconds())
	}
	if routed == 0 || attempts == 0 {
		for _, name := range []string{"cluster.self_frac.p50", "cluster.attempts_per_request", "cluster.home_share", "cluster.replica_imbalance"} {
			m.set(name, 0, "ratio")
		}
		return
	}
	most := 0
	for _, name := range replicas {
		if per[name] > most {
			most = per[name]
		}
	}
	fmt.Printf("cluster    dispatcher self time p50 %.3f ms\n", median(self))
	m.set("cluster.self_frac.p50", median(frac), "ratio")
	m.set("cluster.attempts_per_request", float64(attempts)/float64(routed), "ratio")
	m.set("cluster.home_share", float64(homeFirst)/float64(routed), "ratio")
	m.set("cluster.replica_imbalance", float64(most)*float64(len(replicas))/float64(attempts), "ratio")
}

// coverage is the median over requests of the share of the client-side
// latency that the server-side spans (router and replica handlers and
// attempts) cover.
func coverage(reqs []*reqTrace) float64 {
	var fr []float64
	for _, r := range reqs {
		if r.client.start.IsZero() || r.client.dur() <= 0 {
			continue
		}
		spans := []span{r.dispatch}
		for _, a := range r.attempts {
			spans = append(spans, a.span)
		}
		for _, s := range r.serve {
			spans = append(spans, s.span)
		}
		fr = append(fr, covered(r.client, spans).Seconds()/r.client.dur().Seconds())
	}
	return median(fr)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
