package experiments

import (
	"nvdimmc/internal/core"
	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/workload/fio"
)

// AblationResult holds the §VII-C future-work matrix: uncached 4 KB
// random-read bandwidth under each device/driver improvement the paper
// proposes, against the PoC baseline configuration.
type AblationResult struct {
	Rows []Row // Paper column unused (these are projections, not measurements)
}

// Ablations measures the §VII-C design alternatives:
//
//	(1) the PoC as built (separate poll/data/ack windows, QD 1, 4 KB/window)
//	(2) ack merged into the data window (cuts one window per command)
//	(3) merged writeback+cachefill command (future work item 4)
//	(4) CP command depth 2 (item 2)
//	(5) 8 KB per window (item 3) combined with (3)
//	(6) dirty tracking (clean victims skip writeback entirely)
//	(7) LRU replacement (the §VII-B5 suggestion; matters for reuse, shown
//	    here for completeness on the uniform-random workload)
func Ablations(o Options) (AblationResult, error) {
	var res AblationResult
	ops := o.pick(300, 100)

	type variant struct {
		name string
		mod  func(*core.Config)
	}
	variants := []variant{
		{"PoC baseline (QD1, 3 windows/cmd)", func(c *core.Config) {}},
		{"+ack merges with data window", func(c *core.Config) {
			c.NVMC.AckMergesWithData = true
		}},
		{"+combined wb+cf command", func(c *core.Config) {
			c.NVMC.AckMergesWithData = true
			c.Driver.CombineWBCF = true
		}},
		{"+CP depth 2 (driver-pipelined)", func(c *core.Config) {
			c.NVMC.AckMergesWithData = true
			c.Driver.CombineWBCF = true
			c.NVMC.CommandDepth = 2
			c.Driver.CPQueueDepth = 2
		}},
		{"+8KB windows", func(c *core.Config) {
			c.NVMC.AckMergesWithData = true
			c.Driver.CombineWBCF = true
			c.NVMC.CommandDepth = 2
			c.Driver.CPQueueDepth = 2
			c.NVMC.MaxBytesPerWindow = 8192
		}},
		{"dirty tracking (read workload)", func(c *core.Config) {
			c.Driver.TrackDirty = true
		}},
		{"LRU replacement", func(c *core.Config) {
			c.Driver.Policy = nvdc.PolicyLRU
		}},
	}

	for _, v := range variants {
		cfg := core.UncachedConfig(o.Quick)
		v.mod(&cfg)
		b, err := NewBench(Uncached, cfg)
		if err != nil {
			return res, err
		}
		jobs := 1
		if cfg.Driver.CPQueueDepth > 1 {
			jobs = 4 // pipelining only shows with concurrent misses
		}
		r, err := b.Run(fio.Job{
			Pattern: fio.RandRead, BlockSize: PageSize, NumJobs: jobs,
			OpsPerThread: ops / jobs, WarmupOps: (b.Sys.Layout.NumSlots + 50) / jobs, Seed: 7,
		})
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Row{Name: v.name, Measured: r.BandwidthMBps(), Unit: "MB/s"})
	}

	printRows(o, "Ablations (§VII-C): uncached 4KB randread", res.Rows)
	return res, nil
}
