package ftl

import (
	"math"
	"runtime"
	"testing"

	"nvdimmc/internal/nand"
	"nvdimmc/internal/sim"
)

// TestNewAllocsIndependentOfBlocks pins New's allocation count: block
// records come from one slab and their reverse maps from one flat array,
// so the count does not grow with BlocksPerDie (it grew by 2 per block
// while each block had its own record and reverse map).
func TestNewAllocsIndependentOfBlocks(t *testing.T) {
	allocs := func(blocks int) uint64 {
		ncfg := nand.DefaultConfig()
		ncfg.BlocksPerDie = blocks
		arr := nand.New(sim.NewKernel(), ncfg)
		// A fresh kernel per run: resources register with their kernel.
		return fewestAllocs(20, func() { New(sim.NewKernel(), arr, DefaultConfig()) })
	}
	if small, large := allocs(16), allocs(512); small != large {
		t.Fatalf("New made %d allocations at 16 blocks per die, %d at 512", small, large)
	}
}

// TestMemberMediaFootprint checks that a member's NAND and FTL host state
// is a few bytes per raw page: a freshly built array of 16x the default
// member's media (2048 blocks per die, 2 GiB raw) with its FTL holds under
// 6 B per raw 4 KiB page of live heap (it held about 40 B with per-page
// program, zero and data tables and per-block int64 reverse maps).
func TestMemberMediaFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("-race inflates heap byte counts")
	}
	ncfg := nand.DefaultConfig()
	ncfg.BlocksPerDie = 2048
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	k := sim.NewKernel()
	arr := nand.New(k, ncfg)
	f := New(k, arr, DefaultConfig())
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	rawPages := arr.Capacity() / nand.PageSize
	perPage := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(rawPages)
	t.Logf("%d raw pages, %.2f B of NAND + FTL heap per raw page", rawPages, perPage)
	if perPage >= 6 {
		t.Fatalf("NAND + FTL hold %.2f B per raw page, want < 6", perPage)
	}
}

// fewestAllocs returns the fewest heap allocations f made in runs calls.
// The minimum, not the mean, so allocations outside f (a -race build's
// sync.Pool drops, other goroutines) do not count.
func fewestAllocs(runs int, f func()) uint64 {
	fewest := uint64(math.MaxUint64)
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}
