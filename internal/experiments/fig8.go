package experiments

import (
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

// Fig8 runs the six bars of Fig. 8.
func Fig8(o Options) (Fig8Result, error) {
	var res Fig8Result
	ops := o.pick(2000, 400)

	add := func(name string, kiops, mbps float64) {
		p := fig8Paper[name]
		res.Rows = append(res.Rows,
			Row{Name: name + " KIOPS", Paper: p[0], Measured: kiops, Unit: "KIOPS"},
			Row{Name: name + " bandwidth", Paper: p[1], Measured: mbps, Unit: "MB/s"},
		)
	}

	// Baseline.
	for _, write := range []bool{false, true} {
		d, err := newBaseline()
		if err != nil {
			return res, err
		}
		pat := fio.RandRead
		name := "baseline-read"
		if write {
			pat, name = fio.RandWrite, "baseline-write"
		}
		r, err := fio.Run(d, fio.Job{
			Pattern: pat, BlockSize: PageSize, NumJobs: 1,
			FileSize: 120 << 30, OpsPerThread: ops, WarmupOps: ops / 10,
		})
		if err != nil {
			return res, err
		}
		add(name, r.KIOPS(), r.BandwidthMBps())
	}

	// NVDC-Cached.
	for _, write := range []bool{false, true} {
		s, err := coreSystem(nvdcConfig(0))
		if err != nil {
			return res, err
		}
		pages := s.Layout.NumSlots * 9 / 10
		if err := prefillSlots(s, pages); err != nil {
			return res, err
		}
		tgt := s.NewFioTarget()
		tgt.SetWalkFootprint(15 << 30)
		pat := fio.RandRead
		name := "cached-read"
		if write {
			pat, name = fio.RandWrite, "cached-write"
		}
		r, err := fio.Run(tgt, fio.Job{
			Pattern: pat, BlockSize: PageSize, NumJobs: 1,
			FileSize: int64(pages) * PageSize, OpsPerThread: ops, WarmupOps: ops / 10,
		})
		if err != nil {
			return res, err
		}
		if err := s.CheckHealth(); err != nil {
			return res, err
		}
		add(name, r.KIOPS(), r.BandwidthMBps())
	}

	// NVDC-Uncached.
	for _, write := range []bool{false, true} {
		s, err := coreSystem(nvdcConfig(o.pick(512, 256)))
		if err != nil {
			return res, err
		}
		if err := s.PrefillMedia(); err != nil {
			return res, err
		}
		tgt := s.NewFioTarget()
		tgt.SetWalkFootprint(120 << 30)
		pat := fio.RandRead
		name := "uncached-read"
		if write {
			pat, name = fio.RandWrite, "uncached-write"
		}
		r, err := fio.Run(tgt, fio.Job{
			Pattern: pat, BlockSize: PageSize, NumJobs: 1,
			FileSize: tgt.Capacity(), OpsPerThread: o.pick(400, 120),
			WarmupOps: s.Layout.NumSlots + 50, Seed: 7,
		})
		if err != nil {
			return res, err
		}
		if err := s.CheckHealth(); err != nil {
			return res, err
		}
		add(name, r.KIOPS(), r.BandwidthMBps())
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
