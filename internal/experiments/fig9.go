package experiments

import (
	"fmt"

	"nvdimmc/internal/core"
	"nvdimmc/internal/report"
	"nvdimmc/internal/workload/fio"
)

// Fig9Point is one (threads, KIOPS, MB/s) sample of a thread-sweep series.
type Fig9Point struct {
	Threads int
	KIOPS   float64
	MBps    float64
}

// Fig9Result holds the thread-count sweep (Fig. 9): baseline / NVDC-Cached /
// NVDC-Uncached for reads and writes.
type Fig9Result struct {
	// Series maps "baseline-read" etc. to sweep points.
	Series map[string][]Fig9Point
}

// Peak returns the maximum bandwidth of a series.
func (r Fig9Result) Peak(name string) (threads int, mbps float64) {
	for _, p := range r.Series[name] {
		if p.MBps > mbps {
			mbps, threads = p.MBps, p.Threads
		}
	}
	return
}

// Fig9 sweeps thread counts. Paper anchors: baseline peaks 2123 KIOPS /
// 8694 MB/s @8 threads; Cached reads 1060 KIOPS / 4341 MB/s @8 (writes
// 4615 MB/s @16); Uncached saturates at 4 threads near 99.7 MB/s.
func Fig9(o Options) (Fig9Result, error) {
	res := Fig9Result{Series: make(map[string][]Fig9Point)}
	threads := []int{1, 2, 4, 8, 16}
	if o.Quick {
		threads = []int{1, 4, 8}
	}
	ops := o.pick(600, 200)

	// Every (module, pattern, threads) sample is an independent build plus
	// run, so the whole sweep fans out as shards and merges in the
	// canonical enumeration order below.
	type sweepPoint struct {
		m    Module
		pat  fio.Pattern
		jobs int
	}
	var pts []sweepPoint
	for _, m := range []Module{Baseline, Cached, Uncached} {
		for _, pat := range []fio.Pattern{fio.RandRead, fio.RandWrite} {
			for _, jobs := range threads {
				if m == Uncached && jobs > 8 {
					continue // the paper stops the uncached sweep early too
				}
				pts = append(pts, sweepPoint{m, pat, jobs})
			}
		}
	}
	// run builds p's module and runs its sample.
	run := func(p sweepPoint) (fio.Result, error) {
		cfg := core.DefaultConfig()
		if p.m == Uncached {
			cfg = core.UncachedConfig(o.Quick)
		}
		b, err := NewBench(p.m, cfg)
		if err != nil {
			return fio.Result{}, err
		}
		job := fio.Job{Pattern: p.pat, BlockSize: PageSize, NumJobs: p.jobs, OpsPerThread: ops, WarmupOps: ops / 10}
		if p.m == Uncached {
			job.OpsPerThread, job.WarmupOps, job.Seed = o.pick(150, 60), (b.Sys.Layout.NumSlots+100)/p.jobs, 7
		}
		return b.Run(job)
	}
	measured, err := runShards(len(pts), o.workers(), func(i int) (Fig9Point, error) {
		p := pts[i]
		r, err := run(p)
		if err != nil {
			return Fig9Point{}, fmt.Errorf("%s jobs=%d: %w", p.m.series(p.pat), p.jobs, err)
		}
		return Fig9Point{Threads: p.jobs, KIOPS: r.KIOPS(), MBps: r.BandwidthMBps()}, nil
	})
	if err != nil {
		return res, err
	}
	for i, p := range pts {
		key := p.m.series(p.pat)
		res.Series[key] = append(res.Series[key], measured[i])
	}

	o.printf("== Fig. 9: 4KB random R/W vs thread count ==\n")
	for _, key := range []string{"baseline-read", "baseline-write", "cached-read", "cached-write", "uncached-read", "uncached-write"} {
		o.printf("  %-16s", key)
		var ys []float64
		for _, p := range res.Series[key] {
			o.printf("  %dT:%6.0fMB/s", p.Threads, p.MBps)
			ys = append(ys, p.MBps)
		}
		o.printf("  %s\n", report.Sparkline(ys))
	}
	o.printf("  paper peaks: baseline 8694 MB/s @8T; cached-read 4341 @8T; cached-write 4615 @16T; uncached ~99.7 @4T\n")
	return res, nil
}
