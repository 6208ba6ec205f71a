package core

import (
	"math"
	"runtime"
	"testing"

	"nvdimmc/internal/workload/fio"
)

// newPrefilledMember builds one DefaultConfig member and seq-writes the
// given tenths of its cache slots, as a pool member's prefill does.
func newPrefilledMember(tb testing.TB, tenths int) *System {
	tb.Helper()
	s, err := NewSystem(DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if err := fio.Prefill(s.NewFioTarget(), int64(s.Layout.NumSlots*tenths/10)*PageSize, PageSize); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestPrefillAllocsFlat checks that a prefill's allocations do not grow
// with its page count: every op runs on recycled records, so building a
// member and prefilling 90% of it makes no more allocations than with a
// 10% prefill, bar the DRAM pages of the metadata entries it writes (at
// most one per metadata page). The malloc count is process-wide, so a
// runtime or leftover test goroutine that allocates meanwhile inflates one
// build: on one P, after a GC, each size counts the fewest of three builds.
func TestPrefillAllocsFlat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(tenths int) (fewest uint64, metaPages int) {
		fewest = math.MaxUint64
		for range 3 {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s := newPrefilledMember(t, tenths)
			runtime.ReadMemStats(&after)
			fewest, metaPages = min(fewest, after.Mallocs-before.Mallocs), int(s.Layout.MetaSize/PageSize)
		}
		return fewest, metaPages
	}
	small, _ := allocs(1)
	large, metaPages := allocs(9)
	if large > small+uint64(metaPages) {
		t.Fatalf("a 90%% prefill made %d allocations, a 10%% one %d (allowed growth: %d metadata pages)",
			large, small, metaPages)
	}
}

// BenchmarkNewMember builds one DefaultConfig member and prefills 90% of
// its slots: the per-member cost of building a pool.
func BenchmarkNewMember(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newPrefilledMember(b, 9)
	}
}
