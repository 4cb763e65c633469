package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pimcapsnet/internal/cluster"
	"pimcapsnet/internal/obs"
)

// recorder is the in-memory http.ResponseWriter every in-process call
// writes into: requests go straight into ServeHTTP, with no sockets.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// transport is the router→replica http.RoundTripper: it hands each
// attempt to the named replica's handler in the calling goroutine.
// Replica URLs are "http://<name>".
type transport struct {
	replicas map[string]http.Handler
	tr       *tracer // nil when untraced
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.replicas[req.URL.Host]
	if !ok {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("perfbench: no in-process replica %q", req.URL.Host)
	}
	sreq := req.Clone(req.Context())
	sreq.RequestURI = req.URL.RequestURI()
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	rec := &recorder{}
	start := time.Now()
	h.ServeHTTP(rec, sreq)
	end := time.Now()
	sreq.Body.Close()
	if t.tr != nil && req.URL.Path == classifyPath {
		t.tr.attempt(req.Header.Get(obs.TraceIDHeader), req.URL.Host, start, end, rec.status())
	}
	return &http.Response{
		Status:        strconv.Itoa(rec.status()) + " " + http.StatusText(rec.status()),
		StatusCode:    rec.status(),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.Header(),
		Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// probePool is the dispatcher's cluster.Pool over in-process replicas:
// it polls each replica's /readyz handler every interval, as the
// subprocess Manager does, and serves the last probed load.
type probePool struct {
	names    []string
	handlers []http.Handler
	mu       sync.Mutex
	snap     []cluster.ReplicaInfo
	stop     chan struct{}
	done     chan struct{}
}

// newProbePool probes every replica once and starts the poller; Close
// stops it and waits for it to exit.
func newProbePool(names []string, handlers []http.Handler, interval time.Duration) *probePool {
	p := &probePool{names: names, handlers: handlers, stop: make(chan struct{}), done: make(chan struct{})}
	p.probe()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.probe()
			}
		}
	}()
	return p
}

func (p *probePool) probe() {
	snap := make([]cluster.ReplicaInfo, len(p.names))
	for i, h := range p.handlers {
		rec := &recorder{}
		h.ServeHTTP(rec, mustRequest(context.Background(), http.MethodGet, "/readyz", nil))
		var l cluster.Load
		err := json.Unmarshal(rec.body.Bytes(), &l)
		snap[i] = cluster.ReplicaInfo{
			Name:  p.names[i],
			URL:   "http://" + p.names[i],
			Ready: err == nil && rec.status() == http.StatusOK,
			Load:  l,
		}
	}
	p.mu.Lock()
	p.snap = snap
	p.mu.Unlock()
}

func (p *probePool) Snapshot() []cluster.ReplicaInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]cluster.ReplicaInfo(nil), p.snap...)
}

func (p *probePool) Close() {
	close(p.stop)
	<-p.done
}

const classifyPath = "/v1/classify"

func mustRequest(ctx context.Context, method, path string, body []byte) *http.Request {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, path, rd)
	if err != nil {
		panic(err) // constant method and path: only a bug gets here
	}
	req.RequestURI = path
	return req
}

// errMismatch marks a 2xx response whose body differs from the
// reference; the load generator counts it as failed.
var errMismatch = errors.New("perfbench: response differs from the reference output")

// target is the loadgen.Target that sends request i (image i mod the
// working set) straight into the front handler and checks the reply
// against the reference body.
type target struct {
	h      http.Handler
	bodies [][]byte
	want   [][]byte // reference reply prefixes; nil skips the check
	tr     *tracer  // nil when untraced
	phase  string   // trace-ID prefix, unique per load phase
	bad    atomic.Int64
}

func (t *target) Do(ctx context.Context, i int) (int, error) {
	k := i % len(t.bodies)
	req := mustRequest(ctx, http.MethodPost, classifyPath, t.bodies[k])
	req.Header.Set("Content-Type", "application/json")
	id := t.phase + strconv.Itoa(i)
	req.Header.Set(obs.TraceIDHeader, id)
	rec := &recorder{}
	start := time.Now()
	t.h.ServeHTTP(rec, req)
	end := time.Now()
	if t.tr != nil {
		t.tr.client(id, k, start, end)
	}
	code := rec.status()
	if code == http.StatusOK && t.want != nil && !sameReply(rec.body.Bytes(), t.want[k]) {
		t.bad.Add(1)
		return 0, errMismatch
	}
	return code, nil
}

// sameReply reports whether body is want followed by a batch size and
// the closing brace: the response equals the reference in class,
// probabilities and poses, whatever batch it rode.
func sameReply(body, want []byte) bool {
	if !bytes.HasPrefix(body, want) {
		return false
	}
	rest := bytes.TrimSpace(body[len(want):])
	if len(rest) < 2 || rest[len(rest)-1] != '}' {
		return false
	}
	_, err := strconv.Atoi(string(rest[:len(rest)-1]))
	return err == nil
}
