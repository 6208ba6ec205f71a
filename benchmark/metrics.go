package main

import (
	"math"
	"sort"
)

// source says how a run's value of a metric is formed from its reps.
type source int

const (
	// fromReps: the median over the untraced reps (host timings, runtime
	// counters, latencies).
	fromReps source = iota
	// exact: a deterministic work count or model output. On a deterministic
	// workload every rep, the traced one included, must agree exactly.
	exact
	// fromTrace: measured in the traced rep only.
	fromTrace
)

type metricDef struct {
	name, unit string
	src        source
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports each of them, with a value that is never zero.
var endToEnd = []metricDef{
	{"setup_s", "s", fromReps},
	{"req_per_s", "req/s", fromReps},
	{"peak_rss_mb", "MB", fromReps},
}

// perLayer are the metrics of single layers, in report order. A layer that
// is not on a workload's path reports 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(src source, unit string, names ...string) {
		for _, n := range names {
			m = append(m, metricDef{n, unit, src})
		}
	}
	for _, l := range layers {
		add(fromTrace, "%", "cpu."+l+"_pct")
	}
	add(fromTrace, "%", "cpu.alloc_pct")
	add(fromTrace, "ns", "cpu.ns_per_req")
	for _, l := range layers {
		add(fromTrace, "%", "setup_cpu."+l+"_pct")
	}
	add(fromTrace, "%", "setup_cpu.alloc_pct")

	add(fromReps, "count", "go.allocs_per_req")
	add(fromReps, "B", "go.alloc_bytes_per_req")
	add(fromReps, "count", "go.gc_cycles")
	add(fromReps, "ms", "go.gc_pause_ms")

	add(exact, "count", "sim.events_per_req")
	add(fromReps, "ns", "sim.ns_per_event")
	add(exact, "count", "pool.epochs")
	add(fromReps, "1/s", "pool.epochs_per_s")
	add(exact, "count", "pool.held_peak")
	add(fromReps, "1/s", "numa.epochs_per_s")
	add(exact, "ratio", "numa.remote_frac")
	add(exact, "ratio", "nvdc.hit_ratio")
	add(exact, "count", "nvdc.cp_cmds_per_req")
	add(exact, "ratio", "nvmc.windows_used_frac")
	add(exact, "count", "nvmc.windows_per_cmd")
	add(exact, "count", "refdet.detections")
	add(exact, "count", "media.nand_programs_per_req")
	add(exact, "ratio", "media.write_amp")
	add(fromReps, "ms", "audit.check_health_ms")

	add(exact, "s", "model.sim_s")
	add(exact, "us", "model.p50_us", "model.p99_us", "model.p999_us")
	add(exact, "MB/s", "model.bw_mbps")

	add(fromReps, "ms", "svc.lat_p50_ms_2k", "svc.lat_p99_ms_2k", "svc.lat_p999_ms_2k",
		"svc.lat_p50_ms_6k", "svc.lat_p99_ms_6k", "svc.gen_late_p99_ms")
	add(fromReps, "us", "server.sim_p50_us")
	add(fromReps, "ms", "server.overhead_p50_ms")
	add(fromReps, "count", "server.epochs_per_req")

	add(fromTrace, "ns", "micro.kernel_ns_per_event", "micro.decoder_ns_per_frag", "micro.trace_decode_ns_per_op")
	add(fromTrace, "B", "micro.trace_bytes_per_op")
	add(fromTrace, "us", "micro.member_hit_us_per_op")

	add(fromTrace, "%", "trace.overhead_pct")
	return m
}

// allMetrics is every metric, end-to-end first.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile interpolates linearly between the closest ranks of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0: a count over work that did not happen.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
