package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"nvdimmc/internal/sim"
)

// rep is one measurement: one set-up and one run of a workload, made in a
// fresh child process so that no rep inherits another's heap.
type rep struct {
	// Requests counts the requests offered; Failed those that did not
	// complete; Problems lists every failed correctness check.
	Requests int                `json:"requests"`
	Failed   int                `json:"failed"`
	Problems []string           `json:"problems,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	// Samples holds raw per-request samples that the parent pools across
	// reps before taking percentiles (the service's host latencies).
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func putShares(m map[string]float64, prefix string, s cpuShares) {
	for _, l := range layers {
		m[prefix+l+"_pct"] = s.pct[l]
	}
	m[prefix+"alloc_pct"] = s.allocPct
}

// runRep sets up w, generates its inputs from seed, runs and checks it, all
// in this process. A traced rep also profiles the setup and run phases and
// ends with the micro-timings.
func runRep(w workload, seed uint64, scale float64, traced bool) (*rep, error) {
	sys, err := w.newSystem()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defer sys.close()
	// Collect what newSystem left behind (the service's reference pool), so
	// setup starts from the same heap in every rep.
	runtime.GC()
	r := &rep{Metrics: map[string]float64{}}
	// A layer that is not on this workload's path reports 0.
	for _, d := range perLayer {
		if d.src != fromTrace {
			r.Metrics[d.name] = 0
		}
	}
	var prof profiler
	if traced {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	err = sys.setup()
	r.Metrics["setup_s"] = time.Since(start).Seconds()
	if traced {
		stacks, perr := prof.stop()
		if err == nil {
			err = perr
		}
		putShares(r.Metrics, "setup_cpu.", attribute(stacks))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	if err := sys.prepare(sim.SplitSeed(seed, "benchmark/"+w.name), scale); err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	// Collect the generator's garbage so the run's GC counts are its own.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if traced {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	n, runErr := sys.run()
	runS := time.Since(start).Seconds()
	var stacks []stack
	if traced {
		if stacks, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)

	r.Requests = n
	if runErr != nil {
		r.Problems = append(r.Problems, fmt.Sprintf("run: %v", runErr))
	}
	start = time.Now()
	failed, problems := sys.check(n)
	r.Metrics["audit.check_health_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	r.Failed = failed
	r.Problems = append(r.Problems, problems...)

	perReq := float64(n)
	r.Metrics["req_per_s"] = ratio(perReq, runS)
	r.Metrics["go.allocs_per_req"] = ratio(float64(m1.Mallocs-m0.Mallocs), perReq)
	r.Metrics["go.alloc_bytes_per_req"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), perReq)
	r.Metrics["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	r.Metrics["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	sys.report(r, runS, n)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	r.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	if traced {
		shares := attribute(stacks)
		putShares(r.Metrics, "cpu.", shares)
		r.Metrics["cpu.ns_per_req"] = ratio(float64(shares.totalNS), perReq)
		if err := sys.micro(r.Metrics); err != nil {
			return nil, fmt.Errorf("%s: micro-timings: %w", w.name, err)
		}
	}
	return r, nil
}

// childTimeout bounds one child process; a rep takes a few seconds.
const childTimeout = 120 * time.Second

// spawn runs one rep in a child process of this binary.
func spawn(exe string, w workload, seed uint64, traced bool) (*rep, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s rep: %w", w.name, err)
	}
	var r rep
	if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
		return nil, fmt.Errorf("%s rep: decode result: %w", w.name, err)
	}
	return &r, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// result is one workload's measurement at one seed.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Reps holds each untraced rep's end-to-end values, for quartiles.
	Reps map[string][]float64 `json:"reps"`
	// Metrics holds every metric measured, per-layer ones included.
	Metrics map[string]float64 `json:"metrics"`
}

func (res *result) problem(format string, args ...any) {
	res.Correct = false
	res.Failed++
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// tracedReps is how many profiled reps a traced run adds: at 100 Hz one
// short rep yields only a few hundred samples, so the shares are averaged
// over several.
const tracedReps = 3

// measure runs untraced reps of w until both minReps reps and seconds of
// measuring have passed, then, if trace is set, the profiled reps.
func measure(exe string, w workload, seed uint64, seconds float64, minReps int, trace bool) *result {
	res := &result{Workload: w.name, Seed: seed, Correct: true}
	var reps, traced []*rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		r, err := spawn(exe, w, seed, false)
		if err != nil {
			res.problem("%v", err)
			break
		}
		reps = append(reps, r)
	}
	for i := 0; trace && len(reps) > 0 && i < tracedReps; i++ {
		r, err := spawn(exe, w, seed, true)
		if err != nil {
			res.problem("%v", err)
			break
		}
		traced = append(traced, r)
	}
	res.aggregate(w, reps, traced)
	return res
}

// values collects one metric from the reps that measured it.
func values(reps []*rep, name string) []float64 {
	var xs []float64
	for _, r := range reps {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// aggregate forms the run's metrics from its untraced and traced reps and
// checks that the deterministic ones agree across all of them.
func (res *result) aggregate(w workload, reps, traced []*rep) {
	res.Reps = map[string][]float64{}
	res.Metrics = map[string]float64{}
	all := append(append([]*rep(nil), reps...), traced...)
	for i, r := range all {
		res.Attempted += r.Requests
		res.Failed += r.Failed + len(r.Problems)
		if r.Failed > 0 || len(r.Problems) > 0 {
			res.Correct = false
		}
		for _, p := range r.Problems {
			res.Problems = append(res.Problems, fmt.Sprintf("rep %d: %s", i+1, p))
		}
	}
	if len(reps) == 0 {
		return
	}
	for i, d := range allMetrics() {
		src := d.src
		if src == exact && !w.deterministic {
			src = fromReps
		}
		switch src {
		case fromReps:
			xs := values(reps, d.name)
			if len(xs) == 0 {
				continue
			}
			res.Metrics[d.name] = median(xs)
			if i < len(endToEnd) {
				res.Reps[d.name] = xs
			}
		case exact:
			v, ok := reps[0].Metrics[d.name]
			if !ok {
				continue
			}
			res.Metrics[d.name] = v
			for i, r := range all[1:] {
				if r.Metrics[d.name] != v {
					res.problem("%s differs between rep 1 and rep %d: %v vs %v", d.name, i+2, v, r.Metrics[d.name])
				}
			}
		case fromTrace:
			// The mean, so that the CPU shares still sum to 100.
			if xs := values(traced, d.name); len(xs) > 0 {
				res.Metrics[d.name] = mean(xs)
			}
		}
	}
	if reps[0].Samples != nil {
		pooled := map[string][]float64{}
		for _, r := range reps {
			for k, xs := range r.Samples {
				pooled[k] = append(pooled[k], xs...)
			}
		}
		serviceMetrics(res.Metrics, pooled)
	}
	if len(traced) > 0 {
		med := res.Metrics["req_per_s"]
		res.Metrics["trace.overhead_pct"] = 100 * ratio(med-median(values(traced, "req_per_s")), med)
	}
}
