package pool

import (
	"runtime"
	"testing"

	"nvdimmc/internal/core"
)

// TestPoolFootprint builds a six-member pool of DefaultConfig members in
// the benchmark's shape (4 KiB interleave, caches prefilled to 90%, two
// build workers) and checks its host cost: at most 4.5 MB of live heap
// once built and at most 3,000 allocations to build it. Member state is
// sized by what it stores and prefill ops run on recycled records; with
// per-page NAND tables, int64 reverse maps and two closures per prefill op
// the same pool held 10.4 MB and took 58,900 allocations.
func TestPoolFootprint(t *testing.T) {
	cfg := Config{
		Channels:        6,
		DIMMsPerChannel: 1,
		Interleave:      4096,
		Member:          core.DefaultConfig(),
		PrefillPages:    -1,
		WalkFootprint:   15 << 30,
		Workers:         2,
		Seed:            1,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	live := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1e6
	allocs := after.Mallocs - before.Mallocs
	t.Logf("live heap %.2f MB, %d allocations", live, allocs)
	if allocs > 3000 {
		t.Errorf("building the pool made %d allocations, want <= 3000", allocs)
	}
	if !raceEnabled && live > 4.5 {
		t.Errorf("the built pool holds %.2f MB of live heap, want <= 4.5", live)
	}
}
