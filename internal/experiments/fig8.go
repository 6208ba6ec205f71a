package experiments

import (
	"nvdimmc/internal/core"
	"nvdimmc/internal/workload/fio"
)

// Fig8Result holds the 4 KB random read/write single-thread comparison
// (Fig. 8): Baseline vs NVDC-Cached vs NVDC-Uncached.
type Fig8Result struct {
	Rows []Row
}

// Paper anchors for Fig. 8 (KIOPS, MB/s).
var fig8Paper = map[string][2]float64{
	"baseline-read":  {646, 2606},
	"baseline-write": {576, 2360},
	"cached-read":    {448, 1835},
	"cached-write":   {438, 1796},
	"uncached-read":  {13, 57.3},
	"uncached-write": {14.2, 58.3},
}

// Fig8 runs the six bars of Fig. 8, each on a freshly built module.
func Fig8(o Options) (Fig8Result, error) {
	var res Fig8Result
	ops := o.pick(2000, 400)
	for _, m := range []Module{Baseline, Cached, Uncached} {
		for _, pat := range []fio.Pattern{fio.RandRead, fio.RandWrite} {
			cfg := core.DefaultConfig()
			if m == Uncached {
				cfg = core.UncachedConfig(o.Quick)
			}
			b, err := NewBench(m, cfg)
			if err != nil {
				return res, err
			}
			job := fio.Job{Pattern: pat, BlockSize: PageSize, NumJobs: 1, OpsPerThread: ops, WarmupOps: ops / 10}
			if m == Uncached {
				job.OpsPerThread, job.WarmupOps, job.Seed = o.pick(400, 120), b.Sys.Layout.NumSlots+50, 7
			}
			r, err := b.Run(job)
			if err != nil {
				return res, err
			}
			name := m.series(pat)
			p := fig8Paper[name]
			res.Rows = append(res.Rows,
				Row{Name: name + " KIOPS", Paper: p[0], Measured: r.KIOPS(), Unit: "KIOPS"},
				Row{Name: name + " bandwidth", Paper: p[1], Measured: r.BandwidthMBps(), Unit: "MB/s"},
			)
		}
	}
	printRows(o, "Fig. 8: 4KB random R/W, 1 thread", res.Rows)
	return res, nil
}

// Get returns the measured value for a named row ("cached-read bandwidth").
func (r Fig8Result) Get(name string) float64 {
	for _, row := range r.Rows {
		if row.Name == name {
			return row.Measured
		}
	}
	return 0
}
