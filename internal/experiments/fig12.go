package experiments

import (
	"nvdimmc/internal/core"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/fio"
)

// Fig12Result holds the hypothetical-device study (§VII-D1): uncached 4 KB
// random-read bandwidth when the NVM access is replaced by a programmable
// delay tD.
type Fig12Result struct {
	Rows []Row
}

// Fig12 sweeps tD over {0, 7.8, 3.9, 1.85} us (tREFI, tREFI2, tREFI4
// equivalents). Paper: 1503, 451, 681, 914 MB/s; Cached reference 1835.
func Fig12(o Options) (Fig12Result, error) {
	var res Fig12Result
	cases := []struct {
		td    sim.Duration
		paper float64
		name  string
	}{
		{0, 1503, "tD=0 (sw overhead only)"},
		{7800 * sim.Nanosecond, 451, "tD=7.8us (tREFI)"},
		{3900 * sim.Nanosecond, 681, "tD=3.9us (tREFI2)"},
		{1850 * sim.Nanosecond, 914, "tD=1.85us (tREFI4)"},
	}
	ops := o.pick(1200, 300)
	for _, c := range cases {
		cfg := core.DefaultConfig()
		cfg.Driver.Hypothetical = true
		cfg.Driver.TD = c.td
		b, err := NewBench(Uncached, cfg)
		if err != nil {
			return res, err
		}
		r, err := b.Run(fio.Job{
			Pattern: fio.RandRead, BlockSize: PageSize, NumJobs: 1,
			OpsPerThread: ops, WarmupOps: b.Sys.Layout.NumSlots + 50, Seed: 7,
		})
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Row{
			Name: c.name, Paper: c.paper, Measured: r.BandwidthMBps(), Unit: "MB/s",
		})
	}
	printRows(o, "Fig. 12: hypothetical NVM latency (uncached 4KB randread)", res.Rows)
	return res, nil
}
