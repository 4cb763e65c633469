package main

import (
	"bufio"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/trace"
)

// The traced run records spans from the benchmark's own code, at the
// boundaries of the library's public API, into memory:
//
//	request (client) → dispatch (router handler) → attempt (RoundTripper) → serve (replica handler)
//	batch (PreRunHook / ForwardBatch call) → capsnet stages (tee StageTimer)
//
// Request-scoped spans are joined by the X-Trace-Id header the
// benchmark sets on every request.

type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// hop is one handler or attempt span of a request on a replica.
type hop struct {
	replica string
	span
	code int
}

type reqTrace struct {
	id       string
	image    int
	client   span
	dispatch span
	attempts []hop
	serve    []hop
}

type stageSpan struct {
	name string
	iter int
	span
}

// batchTrace is one forward pass: its span runs from the batch launch
// (serve's PreRunHook, or the ForwardBatch call offline) to the end of
// the last capsnet stage.
type batchTrace struct {
	replica string
	size    int
	fwd     span
	stages  []stageSpan // appended by the forward-pass goroutine only
}

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	//pimcaps:guardedby mu
	reqs map[string]*reqTrace
	//pimcaps:guardedby mu
	order []*reqTrace
	//pimcaps:guardedby mu
	batches []*batchTrace
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), reqs: map[string]*reqTrace{}}
}

// reqLocked returns the record for id, creating it on first sight.
func (t *tracer) reqLocked(id string) *reqTrace {
	r := t.reqs[id]
	if r == nil {
		r = &reqTrace{id: id, image: -1}
		t.reqs[id] = r
		t.order = append(t.order, r)
	}
	return r
}

func (t *tracer) client(id string, image int, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	r := t.reqLocked(id)
	r.image, r.client = image, span{start, end}
	t.mu.Unlock()
}

func (t *tracer) attempt(id, replica string, start, end time.Time, code int) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	r := t.reqLocked(id)
	r.attempts = append(r.attempts, hop{replica, span{start, end}, code})
	t.mu.Unlock()
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// wrap records a span around every classify call h serves: the router's
// handler when replica is "", a replica's otherwise.
func (t *tracer) wrap(replica string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != classifyPath {
			h.ServeHTTP(w, r)
			return
		}
		id := r.Header.Get(obs.TraceIDHeader)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		end := time.Now()
		t.mu.Lock()
		rt := t.reqLocked(id)
		if replica == "" {
			rt.dispatch = span{start, end}
		} else {
			rt.serve = append(rt.serve, hop{replica, span{start, end}, sw.code})
		}
		t.mu.Unlock()
	})
}

// newBatch opens a forward-pass record starting now.
func (t *tracer) newBatch(replica string, size int) *batchTrace {
	b := &batchTrace{replica: replica, size: size, fwd: span{start: time.Now()}}
	t.mu.Lock()
	t.batches = append(t.batches, b)
	t.mu.Unlock()
	return b
}

// stageTee is the capsnet.StageTimer installed on Network.Stages: it
// forwards every stage to the timer it replaced (serve's own recorder)
// and records the stage on the current batch while one is attached.
type stageTee struct {
	inner capsnet.StageTimer
	cur   atomic.Pointer[batchTrace]
}

func (s *stageTee) BeginStage(stage string, iter int) func() {
	var innerEnd func()
	if s.inner != nil {
		innerEnd = s.inner.BeginStage(stage, iter)
	}
	b := s.cur.Load()
	if b == nil {
		return innerEnd
	}
	start := time.Now()
	return func() {
		end := time.Now()
		if innerEnd != nil {
			innerEnd()
		}
		b.stages = append(b.stages, stageSpan{stage, iter, span{start, end}})
		if stage == capsnet.StageLengths {
			b.fwd.end = end
		}
	}
}

// preRunHook is serve.Config.PreRunHook for one replica: it attaches a
// fresh batch record to the tee while tracing is on.
func (t *tracer) preRunHook(replica string, tee *stageTee) func([][]float32) {
	return func(images [][]float32) {
		if !t.on.Load() {
			tee.cur.Store(nil)
			return
		}
		tee.cur.Store(t.newBatch(replica, len(images)))
	}
}

// snapshot returns the recorded requests (in first-seen order) and
// batches; call it once every traced call has returned.
func (t *tracer) snapshot() ([]*reqTrace, []*batchTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.batches {
		if b.fwd.end.IsZero() && len(b.stages) > 0 {
			b.fwd.end = b.stages[len(b.stages)-1].end
		}
	}
	return append([]*reqTrace(nil), t.order...), append([]*batchTrace(nil), t.batches...)
}

// covered returns how much of within the union of spans covers.
func covered(within span, spans []span) time.Duration {
	var iv []span
	for _, s := range spans {
		if s.start.Before(within.start) {
			s.start = within.start
		}
		if s.end.After(within.end) {
			s.end = within.end
		}
		if s.end.After(s.start) {
			iv = append(iv, s)
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].start.Before(iv[b].start) })
	var total time.Duration
	var cur span
	for i, s := range iv {
		switch {
		case i == 0:
			cur = s
		case !s.start.After(cur.end):
			if s.end.After(cur.end) {
				cur.end = s.end
			}
		default:
			total += cur.dur()
			cur = s
		}
	}
	if len(iv) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTimes returns each stage span's self time: its duration minus
// the part its child stages (the spans nested inside it) cover.
func selfTimes(stages []stageSpan) []time.Duration {
	out := make([]time.Duration, len(stages))
	for i, s := range stages {
		var kids []span
		for j, c := range stages {
			if j == i || c.start.Before(s.start) || c.end.After(s.end) {
				continue
			}
			if c.start.Equal(s.start) && c.end.Equal(s.end) && j < i {
				continue // identical spans: the later one is the child
			}
			kids = append(kids, c.span)
		}
		out[i] = s.dur() - covered(s.span, kids)
	}
	return out
}

// writeChrome writes the recorded spans as Chrome trace-event JSON:
// one track per request under "requests", one batch track per replica.
func (t *tracer) writeChrome(path string, reqs []*reqTrace, batches []*batchTrace) error {
	log := &trace.Log{}
	us := func(tm time.Time) float64 { return float64(tm.Sub(t.epoch).Nanoseconds()) / 1e3 }
	add := func(name, cat string, pid, tid int, s span, args map[string]string) {
		if s.start.IsZero() || s.end.Before(s.start) {
			return
		}
		log.Complete(name, cat, pid, tid, us(s.start), us(s.end)-us(s.start), args)
	}
	log.ProcessName(1, "requests")
	for i, r := range reqs {
		tid := i + 1
		id := map[string]string{"trace_id": r.id}
		add("request", "client", 1, tid, r.client, id)
		add("dispatch", "cluster", 1, tid, r.dispatch, id)
		for k, a := range r.attempts {
			add("attempt", "cluster", 1, tid, a.span, map[string]string{
				"trace_id": r.id, "replica": a.replica, "attempt": strconv.Itoa(k + 1), "code": strconv.Itoa(a.code)})
		}
		for _, s := range r.serve {
			add("serve", "serve", 1, tid, s.span, map[string]string{
				"trace_id": r.id, "replica": s.replica, "code": strconv.Itoa(s.code)})
		}
	}
	pids := map[string]int{}
	for _, b := range batches {
		pid, ok := pids[b.replica]
		if !ok {
			pid = len(pids) + 2
			pids[b.replica] = pid
			log.ProcessName(pid, "batches "+b.replica)
		}
		add("forward", "capsnet", pid, 1, b.fwd, map[string]string{"batch": strconv.Itoa(b.size)})
		for _, s := range b.stages {
			var args map[string]string
			if s.iter >= 0 {
				args = map[string]string{"iteration": strconv.Itoa(s.iter)}
			}
			add(s.name, "capsnet", pid, 1, s.span, args)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := log.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
