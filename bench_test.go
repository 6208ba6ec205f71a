package nvdimmc

import (
	"runtime"
	"testing"
)

// BenchmarkExperiments runs every registry entry (ExperimentNames) at
// -quick scale as a sub-benchmark of that name. Each iteration regenerates
// the experiment on the simulated system, reports its headline metrics
// through b.ReportMetric and fails on the gate its registry entry applies,
// so
//
//	go test -run '^$' -bench BenchmarkExperiments -benchtime 1x .
//
// reproduces the whole evaluation, and -bench 'BenchmarkExperiments/fig8$'
// one experiment. Paper-vs-measured context is printed by cmd/nvdimmc-bench
// and recorded in EXPERIMENTS.md.
//
// crash-parallel and fig9-parallel are the harness's own speedup pair:
// the crash sweep and fig9 sharded across GOMAXPROCS workers, against
// their serial sub-benchmarks. Output is byte-identical either way.
func BenchmarkExperiments(b *testing.B) {
	for _, name := range ExperimentNames() {
		b.Run(name, func(b *testing.B) { benchExperiment(b, name, 1) })
	}
	for _, name := range []string{"crash", "fig9"} {
		b.Run(name+"-parallel", func(b *testing.B) { benchExperiment(b, name, runtime.GOMAXPROCS(0)) })
	}
}

// benchExperiment runs the named registry entry b.N times on parallel
// workers, its headlines reported as metrics.
func benchExperiment(b *testing.B, name string, parallel int) {
	opts := ExperimentOptions{Quick: true, Parallel: parallel, Headline: func(metric string, v float64) {
		b.ReportMetric(v, metric)
	}}
	run := Experiments(opts)[name]
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}
