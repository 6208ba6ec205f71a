package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nvdimmc/internal/sim"
)

// testScale shrinks every workload to a few hundred requests or fewer,
// except spill: its misses must first use up the free slots the 90%
// prefill leaves before any CP command is issued.
func testScale(w workload) float64 {
	if w.name == "spill" {
		return 0.3
	}
	return 0.002
}

// TestWorkloadsSmoke runs every workload at tiny scale, traced, in this
// process: every correctness check must pass and every metric the spec
// names must be emitted, with the spec's unit.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, names[i], w.name)
		}
	}
	checkDefs(t, "end_to_end", endToEnd, func(yield func(name, unit string)) {
		for _, m := range spec.EndToEnd {
			yield(m.Name, m.Unit)
		}
	})
	checkDefs(t, "per_layer", perLayer, func(yield func(name, unit string)) {
		for _, m := range spec.PerLayer {
			yield(m.Name, m.Unit)
		}
	})

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runRep(w, 1, testScale(w), true)
			if err != nil {
				t.Fatal(err)
			}
			if r.Requests == 0 || r.Failed != 0 || len(r.Problems) != 0 {
				t.Fatalf("%d requests, %d failed, problems %v", r.Requests, r.Failed, r.Problems)
			}
			res := &result{Workload: w.name, Correct: true}
			res.aggregate(w, []*rep{r}, []*rep{r})
			if !res.Correct {
				t.Fatalf("aggregate: %v", res.Problems)
			}
			for _, d := range allMetrics() {
				v, ok := res.Metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s = %v (present %v)", d.name, v, ok)
				}
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, res.Metrics[d.name])
				}
			}
			for _, name := range onPath[w.name] {
				if res.Metrics[name] <= 0 {
					t.Errorf("%s = %v on the workload's path, want > 0", name, res.Metrics[name])
				}
			}
			sum := 0.0
			for _, l := range layers {
				sum += res.Metrics["cpu."+l+"_pct"]
			}
			if math.Abs(sum-100) > 1e-6 && sum != 0 {
				t.Errorf("CPU shares sum to %v", sum)
			}
		})
	}
}

// onPath names, per workload, metrics of layers on its path: each must be
// measured there, not left at the 0 of a layer the workload bypasses.
var onPath = map[string][]string{
	"steady":      {"sim.events_per_req", "pool.epochs", "nvdc.hit_ratio", "refdet.detections", "model.p50_us", "micro.member_hit_us_per_op", "audit.check_health_ms", "go.allocs_per_req"},
	"spill":       {"sim.events_per_req", "nvdc.cp_cmds_per_req", "nvmc.windows_per_cmd", "media.nand_programs_per_req", "model.p99_us"},
	"idle-pool":   {"sim.events_per_req", "pool.epochs_per_s", "refdet.detections", "model.sim_s"},
	"idle-fabric": {"numa.epochs_per_s", "numa.remote_frac", "pool.epochs", "model.bw_mbps"},
	"service":     {"svc.lat_p50_ms_2k", "svc.lat_p99_ms_6k", "server.sim_p50_us", "server.overhead_p50_ms", "server.epochs_per_req", "model.sim_s"},
}

// checkDefs requires the spec's metrics to be exactly defs, in order.
func checkDefs(t *testing.T, what string, defs []metricDef, spec func(yield func(name, unit string))) {
	t.Helper()
	i := 0
	spec(func(name, unit string) {
		switch {
		case i >= len(defs):
			t.Errorf("%s: BENCHMARK.json has %s, the benchmark emits no more", what, name)
		case defs[i].name != name || defs[i].unit != unit:
			t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", what, i, name, unit, defs[i].name, defs[i].unit)
		}
		i++
	})
	if i < len(defs) {
		t.Errorf("%s: benchmark emits %d metrics, BENCHMARK.json lists %d", what, len(defs), i)
	}
}

// TestProfileAttribution records a CPU profile of the DES kernel's
// schedule/step loop and requires the decoder to find its samples and the
// attribution to charge most of them to the sim layer.
func TestProfileAttribution(t *testing.T) {
	var p profiler
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	nop := func() {}
	for i := 0; i < 64; i++ {
		k.Schedule(sim.Duration(i), nop)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			k.Schedule(100, nop)
			k.Step()
		}
	}
	stacks, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Fatal("no samples decoded")
	}
	for _, s := range stacks {
		if s.ns <= 0 || len(s.funcs) == 0 {
			t.Fatalf("sample without time or frames: %+v", s)
		}
	}
	shares := attribute(stacks)
	sum := 0.0
	for _, l := range layers {
		sum += shares.pct[l]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	// Under -race the detector's own frames carry no Go stack and land in
	// gc, so judge sim's share of the samples that have an nvdimmc frame.
	if own := 100 - shares.pct["gc"]; own <= 0 || shares.pct["sim"] < 0.8*own {
		t.Errorf("sim share %.1f%% of %.1f%% attributed to nvdimmc layers; shares %v", shares.pct["sim"], own, shares.pct)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "nvdimmc/internal/pool.(*Pool).dispatch", "nvdimmc/internal/sim.(*Kernel).Step"}, "pool"},
		{[]string{"nvdimmc/internal/workload/openloop.(*Generator).Next"}, "workload"},
		{[]string{"nvdimmc/internal/refdet.(*Detector).sample.func1", "nvdimmc/internal/sim.(*Kernel).Step"}, "nvmc"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"main.runRep", "main.main"}, "gc"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	if !isAlloc([]string{"runtime.nextFreeFast", "runtime.mallocgc", "nvdimmc/internal/pool.(*Pool).fill"}) {
		t.Error("malloc leaf not counted as allocation")
	}
	if isAlloc([]string{"nvdimmc/internal/sim.(*Kernel).Step", "runtime.mallocgc"}) {
		t.Error("a non-runtime leaf counted as allocation")
	}
}

// TestEveryPackageHasALayer keeps the attribution map in step with the
// packages under internal/.
func TestEveryPackageHasALayer(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			if _, ok := layerOfPkg[e.Name()]; !ok {
				t.Errorf("internal/%s has no layer in layerOfPkg", e.Name())
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2, 4], n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 4}, 1, 4},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		a, b   []float64
		better string
		want   string
	}{
		{[]float64{100, 101, 99}, []float64{100, 102, 98}, "higher", "ok"},
		{[]float64{100, 101, 99}, []float64{80, 81, 79}, "higher", "worse"},
		{[]float64{100, 101, 99}, []float64{80, 81, 79}, "lower", "better"},
		{[]float64{60, 100, 140}, []float64{95, 100, 105}, "higher", "unresolved"},
		{[]float64{60, 100, 140}, []float64{150, 155, 160}, "higher", "better"},
	} {
		if got, _, _ := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("judge(%v, %v, %s) = %s, want %s", c.a, c.b, c.better, got, c.want)
		}
	}
}
