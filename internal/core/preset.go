package core

import (
	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/ftl"
	"nvdimmc/internal/nand"
	"nvdimmc/internal/nvmc"
	"nvdimmc/internal/sim"
)

// DefaultConfig is the scaled PoC, 1:8: a 16 MiB cache for 16 GB over 128
// blocks per die of 64 pages (128 MiB raw) for 128 GB. Callers: every member
// without a preset of its own (fig8–fig13, fig11's sweep base, the CLIs, the
// full-scale pool experiment, pool.DefaultConfig and the benchmark).
func DefaultConfig() Config {
	n := nand.DefaultConfig()
	n.BlocksPerDie = 128
	return Config{
		TREFI:            ddr4.TREFI,
		TRFC:             1250 * sim.Nanosecond,
		CacheBytes:       16 << 20,
		NAND:             n,
		FTL:              ftl.DefaultConfig(),
		NVMC:             nvmc.DefaultConfig(),
		MechanismEnabled: true,
		Audit:            true,
	}
}

// UncachedConfig is the uncached figures' media: DefaultConfig's cache over
// 512 blocks per die (1:32), or 256 with quick (-quick, 1:16). Callers: fig7,
// fig8's and fig9's Uncached target, ablations, nvdimmc-sim -uncached (full).
func UncachedConfig(quick bool) Config {
	if quick {
		return sized(16<<20, 256, 64)
	}
	return sized(16<<20, 512, 64)
}

// SmallConfig is a 1 MiB cache over 32 blocks per die of 16 pages, 1:8.
// Callers: nvdimmc-serve -small and FaultedConfig.
func SmallConfig() Config { return sized(1<<20, 32, 16) }

// FaultedConfig is the fault plans' member: SmallConfig (1:8), whose near-
// capacity footprint reaches the NAND and CP fault sites, with program
// failures reaching the driver (AckAfterProgram). The auditor is off for a
// known defect: under AckAfterProgram one writeback is acked more than once
// ("[cp] slot 0 acked with no command outstanding", ROADMAP item 1).
// Callers: faultpool, numa, nvdimmc-sim -faults and OverloadConfig.
func FaultedConfig() Config {
	cfg := SmallConfig()
	cfg.NVMC.AckAfterProgram, cfg.Audit = true, false
	return cfg
}

// OverloadConfig is FaultedConfig (1:8) with half the array reserved for GC:
// at 6.25% a few thousand requests after the 90% prefill cross the FTL's GC
// write cliff, and a load sweep would scale from the cliff rate, not the
// pool's. Callers: the overload, qos, replay and service experiments.
func OverloadConfig() Config {
	cfg := FaultedConfig()
	cfg.FTL.OverProvisionPct = 50
	return cfg
}

// RigConfig is a one-row 128 KiB cache (~29 slots) over SmallConfig's NAND
// with 20 us programs and 100 us erases, 1:64, so writebacks and cachefills
// stay in flight. Callers: the crash sweep and the conformance fuzzer.
func RigConfig() Config {
	cfg := sized(128<<10, 32, 16)
	cfg.NAND.ProgramLatency, cfg.NAND.EraseLatency = 20*sim.Microsecond, 100*sim.Microsecond
	return cfg
}

// StudyConfig is a 1 MiB cache over 64 blocks per die of 64 pages, 1:64.
// Callers: the aging and windows experiments.
func StudyConfig() Config { return sized(1<<20, 64, 64) }

// MixedLoadConfig is StudyConfig's NAND under 2 MiB, 1:32. Caller: mixedload.
func MixedLoadConfig() Config { return sized(2<<20, 64, 64) }

// EnduranceConfig is 1 MiB over 8 blocks per die of 16 pages, 200 us erases,
// 1:2: writes lap the raw NAND, so GC must work. Caller: endurance.
func EnduranceConfig() Config {
	cfg := sized(1<<20, 8, 16)
	cfg.NAND.EraseLatency = 200 * sim.Microsecond
	return cfg
}

// PoolQuickConfig is a 4 MiB cache (whole 2 MiB stripes still fit) over 32
// blocks per die of 64 pages, 1:8. Caller: the pool experiment at -quick.
func PoolQuickConfig() Config { return sized(4<<20, 32, 64) }

// sized is DefaultConfig resized to a cacheBytes DRAM cache over blocks per
// die of pages each (raw NAND: 4 dies x blocks x pages x 4 KiB).
func sized(cacheBytes int64, blocks, pages int) Config {
	cfg := DefaultConfig()
	cfg.CacheBytes, cfg.NAND.BlocksPerDie, cfg.NAND.PagesPerBlock = cacheBytes, blocks, pages
	return cfg
}
