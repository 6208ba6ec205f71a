package experiments

import (
	"nvdimmc/internal/workload/fio"
)

// Fig10Point is one (block size, KIOPS, MB/s) sample.
type Fig10Point struct {
	BlockSize int
	KIOPS     float64
	MBps      float64
}

// Fig10Result holds the access-granularity sweep (Fig. 10) at one thread.
type Fig10Result struct {
	Series map[string][]Fig10Point // "baseline-read", "cached-read", ...
}

// At returns the point for a block size.
func (r Fig10Result) At(series string, bs int) Fig10Point {
	for _, p := range r.Series[series] {
		if p.BlockSize == bs {
			return p
		}
	}
	return Fig10Point{}
}

// Fig10 sweeps block sizes 128 B – 64 KB. Paper anchors: Cached 2147 KIOPS
// @128 B (1.15x the baseline), 3050 MB/s @64 KB; a large jump between 1 KB
// and 4 KB on the device side because the driver manages 4 KB pages.
func Fig10(o Options) (Fig10Result, error) {
	res := Fig10Result{Series: make(map[string][]Fig10Point)}
	sizes := []int{128, 256, 512, 1024, 4096, 16384, 65536}
	if o.Quick {
		sizes = []int{128, 1024, 4096, 65536}
	}
	ops := func(bs int) int {
		n := o.pick(1500, 300)
		if bs >= 16384 {
			n = o.pick(400, 100)
		}
		return n
	}

	// The baseline builds a fresh device per size; the cached sweep reuses
	// one prefilled system across sizes.
	for _, pat := range []fio.Pattern{fio.RandRead, fio.RandWrite} {
		for _, m := range []Module{Baseline, Cached} {
			key := m.series(pat)
			var b *Bench
			for _, bs := range sizes {
				var err error
				if b == nil || m == Baseline {
					if b, err = NewBench(m, nvdcConfig(0)); err != nil {
						return res, err
					}
				}
				r, err := b.Run(fio.Job{
					Pattern: pat, BlockSize: bs, NumJobs: 1,
					OpsPerThread: ops(bs), WarmupOps: 50, Align: PageSize,
				})
				if err != nil {
					return res, err
				}
				res.Series[key] = append(res.Series[key], Fig10Point{BlockSize: bs, KIOPS: r.KIOPS(), MBps: r.BandwidthMBps()})
			}
		}
	}

	o.printf("== Fig. 10: granularity sweep, 1 thread ==\n")
	// Rows print in a fixed order; a map range would shuffle them.
	for _, key := range []string{"baseline-read", "cached-read"} {
		o.printf("  %-14s", key)
		for _, p := range res.Series[key] {
			o.printf("  %5dB:%7.0fKIOPS", p.BlockSize, p.KIOPS)
		}
		o.printf("\n")
	}
	o.printf("  paper: cached 2147 KIOPS @128B (1.15x baseline); 3050 MB/s @64KB\n")
	return res, nil
}
