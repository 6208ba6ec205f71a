package experiments

import (
	"nvdimmc/internal/core"
	"nvdimmc/internal/workload/fio"
)

// EnduranceResult characterizes the Z-NAND wear behaviour under sustained
// random writes — the flash-management background the paper's NVMC carries
// (wear-leveling, GC, bad-block management, §III-A) but the evaluation
// never quantifies. This is extension territory: the numbers justify the
// FTL design choices DESIGN.md lists.
type EnduranceResult struct {
	HostWrites     uint64
	GCWrites       uint64
	WriteAmp       float64
	MaxWear        uint64
	AvgWear        float64
	WearImbalance  float64 // max/avg
	GrownBadBlocks uint64
	StallEvents    uint64
}

// Endurance hammers the device with random 4 KB writes over a footprint
// larger than the cache (every write eventually lands on NAND) and reports
// write amplification and wear spread.
func Endurance(o Options) (EnduranceResult, error) {
	var res EnduranceResult
	s, err := core.NewSystem(core.EnduranceConfig())
	if err != nil {
		return res, err
	}
	tgt := s.NewFioTarget()
	tgt.SetWalkFootprint(MediaWalk)
	ops := o.pick(6000, 1500)
	_, err = fio.Run(tgt, fio.Job{
		Pattern: fio.RandWrite, BlockSize: PageSize, NumJobs: 2,
		FileSize: tgt.Capacity(), OpsPerThread: ops / 2, Seed: 99,
	})
	if err != nil {
		return res, err
	}
	if err := s.CheckHealth(); err != nil {
		return res, err
	}

	hw, gw, _, grown := s.FTL.Stats()
	total := s.NAND.TotalErases()
	blocks := s.NAND.TotalBlocks()
	res = EnduranceResult{
		HostWrites:     hw,
		GCWrites:       gw,
		WriteAmp:       s.FTL.WriteAmplification(),
		MaxWear:        s.NAND.MaxWear(),
		AvgWear:        float64(total) / float64(blocks),
		GrownBadBlocks: grown,
		StallEvents:    s.FTL.StallEvents(),
	}
	if res.AvgWear > 0 {
		res.WearImbalance = float64(res.MaxWear) / res.AvgWear
	}

	o.printf("== Endurance (extension): sustained 4KB random writes ==\n")
	o.printf("  host writes=%d gc writes=%d write amplification=%.2f\n",
		res.HostWrites, res.GCWrites, res.WriteAmp)
	o.printf("  wear: max=%d avg=%.1f imbalance=%.2fx  grown-bad=%d  gc-stalls=%d\n",
		res.MaxWear, res.AvgWear, res.WearImbalance, res.GrownBadBlocks, res.StallEvents)
	return res, nil
}
