// Command perfbench is the repository benchmark. One invocation runs
// one seeded workload against the library's public API in this
// process, checks every output against reference outputs computed on
// a separately built network, and prints its metrics as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the workload's end-to-end metrics; with
// -trace 1 a separate traced run reports per-layer metrics and writes
// the spans as Chrome-trace JSON into -out-dir. Workloads, metrics and
// the predictions they test are described in README.md.
//
//	go build -o perfbench . && ./perfbench -workload tiny-light -seed 1 -seconds 15 -trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// probeReply is what a set-up probe process prints: its set-up time
// and, when asked, the reference outputs of the working set.
type probeReply struct {
	SetupSeconds float64     `json:"setup_s"`
	Refs         []reference `json:"refs,omitempty"`
}

// setupProbes is how many fresh processes repeat the workload's set-up
// beside the measuring process; setup_s is the median of all of them.
const setupProbes = 2

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the arrival schedules and the input images")
	seconds := flag.Float64("seconds", 15, "length of the measured phase, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	outDir := flag.String("out-dir", ".bench_build", "directory for the Chrome-trace JSON of traced runs")
	probe := flag.String("probe", "", "internal: run only the set-up (\"setup\") or the set-up and the reference outputs (\"oracle\") and print them")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	b := &bench{wl: wl, seed: *seed, seconds: *seconds}
	if *probe != "" {
		if err := runProbe(b, *probe == "oracle"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench probe:", err)
			os.Exit(1)
		}
		return
	}
	if *traced == 1 {
		b.tr = newTracer()
	}
	res, err := run(b, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runProbe is the body of a set-up probe process.
func runProbe(b *bench, oracle bool) error {
	b.images = workingSet(b.wl, b.seed)
	if err := b.encodeRequests(); err != nil {
		return err
	}
	start := time.Now()
	if err := b.wl.setup(b, nil); err != nil {
		return err
	}
	reply := probeReply{SetupSeconds: time.Since(start).Seconds()}
	if oracle {
		refs, err := references(b.wl.cfg, b.images)
		if err != nil {
			return err
		}
		reply.Refs = refs
	}
	return json.NewEncoder(os.Stdout).Encode(reply)
}

// spawnProbe runs one set-up probe in a fresh process and waits for it.
func spawnProbe(b *bench, mode string) (probeReply, error) {
	exe, err := os.Executable()
	if err != nil {
		return probeReply{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", b.wl.name, "-seed", strconv.FormatInt(b.seed, 10),
		"-seconds", strconv.FormatFloat(b.seconds, 'g', -1, 64), "-probe", mode)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return probeReply{}, fmt.Errorf("%s probe: %w", mode, err)
	}
	var reply probeReply
	if err := json.Unmarshal(stdout.Bytes(), &reply); err != nil {
		return probeReply{}, fmt.Errorf("%s probe output: %w", mode, err)
	}
	return reply, nil
}

// run measures one workload: reference outputs and repeated set-up in
// probe processes, then this process's own set-up and measured phases.
func run(b *bench, outDir string) (*result, error) {
	b.images = workingSet(b.wl, b.seed)
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		mode := "setup"
		if i == 0 {
			mode = "oracle"
		}
		reply, err := spawnProbe(b, mode)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if len(reply.Refs) != len(b.images) {
				return nil, fmt.Errorf("oracle probe returned %d references for %d images", len(reply.Refs), len(b.images))
			}
			b.refs = reply.Refs
		}
		setups = append(setups, reply.SetupSeconds)
	}
	if err := b.encodeRequests(); err != nil {
		return nil, err
	}
	if err := b.encodeReplies(); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := b.wl.setup(b, b.tr); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, time.Since(start).Seconds())
	defer b.close()

	res := &result{Metrics: metrics{}}
	if err := b.wl.measure(b, res); err != nil {
		return nil, err
	}
	if b.tr == nil {
		res.Metrics.set("setup_s", median(setups), "s")
	} else {
		reqs, batches := b.tr.snapshot()
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-seed%d.trace.json", b.wl.name, b.seed))
		if err := b.tr.writeChrome(path, reqs, batches); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("trace: %d requests, %d batches -> %s\n", len(reqs), len(batches), path)
	}
	res.Correct = res.Attempted > 0 && b.mismatches == 0
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Printf("%-48s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("attempted %d, failed %d, output mismatches %d\n", res.Attempted, res.Failed, b.mismatches)
	return res, nil
}

// setPeakRSS reports the process's peak resident set size so far
// (VmHWM) as peak_rss_mb.
func setPeakRSS(m metrics) error {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return fmt.Errorf("peak RSS: %w", err)
			}
			m.set("peak_rss_mb", kb/1024, "MB")
			return nil
		}
	}
	return fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// runtimeSample is a snapshot of the Go runtime counters the runtime
// layer metrics difference.
type runtimeSample struct{ alloc, pauseNs uint64 }

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{ms.TotalAlloc, ms.PauseTotalNs}
}

// runtimeMetrics reports allocation per request (or sample) and the
// share of the phase's wall time the GC paused the program, between two
// snapshots.
func runtimeMetrics(m metrics, before, after runtimeSample, requests int, wall time.Duration) {
	m.set("runtime.alloc_kb_per_request", float64(after.alloc-before.alloc)/1024/float64(requests), "KiB")
	m.set("runtime.gc_pause_frac", float64(after.pauseNs-before.pauseNs)/float64(wall.Nanoseconds()), "ratio")
}
