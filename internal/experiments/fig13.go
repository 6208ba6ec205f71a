package experiments

import (
	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/fio"
)

// Fig13Result holds the refresh-rate cost study (§VII-D2): host-side
// (Cached) 4 KB random-read bandwidth as tREFI is shortened. More refreshes
// give the FPGA more windows but steal host bus time.
type Fig13Result struct {
	Rows []Row
	// Reduction16T is the 16-thread Cached bandwidth at tREFI4 (paper:
	// 3690 MB/s).
	Peak16T float64
}

// Fig13 sweeps tREFI over {7.8, 3.9, 1.95} us at one thread, plus the
// 16-thread point at tREFI4. Paper: 1835, 1691 (-8%), 1530 (-17%); 3690 @16T.
func Fig13(o Options) (Fig13Result, error) {
	var res Fig13Result
	cases := []struct {
		trefi sim.Duration
		paper float64
		name  string
	}{
		{ddr4.TREFI, 1835, "tREFI (7.8us)"},
		{ddr4.TREFIHot, 1691, "tREFI2 (3.9us)"},
		{1950 * sim.Nanosecond, 1530, "tREFI4 (1.95us)"},
	}
	ops := o.pick(1500, 300)

	run := func(trefi sim.Duration, jobs int) (float64, error) {
		cfg := nvdcConfig(0)
		cfg.TREFI = trefi
		b, err := NewBench(Cached, cfg)
		if err != nil {
			return 0, err
		}
		r, err := b.Run(fio.Job{
			Pattern: fio.RandRead, BlockSize: PageSize, NumJobs: jobs,
			OpsPerThread: ops / jobs * 2, WarmupOps: 50,
		})
		if err != nil {
			return 0, err
		}
		return r.BandwidthMBps(), nil
	}

	// The three 1T refresh-rate points and the 16T peak are independent
	// systems: shard all four, merge in case order.
	type trefiPoint struct {
		trefi sim.Duration
		jobs  int
	}
	pts := make([]trefiPoint, 0, len(cases)+1)
	for _, c := range cases {
		pts = append(pts, trefiPoint{trefi: c.trefi, jobs: 1})
	}
	pts = append(pts, trefiPoint{trefi: 1950 * sim.Nanosecond, jobs: 16})
	measured, err := runShards(len(pts), o.workers(), func(i int) (float64, error) {
		return run(pts[i].trefi, pts[i].jobs)
	})
	if err != nil {
		return res, err
	}
	for i, c := range cases {
		res.Rows = append(res.Rows, Row{Name: c.name + " cached 1T", Paper: c.paper, Measured: measured[i], Unit: "MB/s"})
	}
	res.Peak16T = measured[len(cases)]
	res.Rows = append(res.Rows, Row{Name: "tREFI4 cached 16T", Paper: 3690, Measured: res.Peak16T, Unit: "MB/s"})

	printRows(o, "Fig. 13: host-side DRAM bandwidth vs refresh rate", res.Rows)
	return res, nil
}
