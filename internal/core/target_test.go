package core

import (
	"testing"

	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/fio"
)

// prefillCache makes the first `pages` device pages resident (NVDC-Cached
// precondition).
func prefillCache(t *testing.T, s *System, pages int) {
	t.Helper()
	tgt := s.NewFioTarget()
	_, err := fio.Run(tgt, fio.Job{
		Pattern: fio.SeqWrite, BlockSize: PageSize, NumJobs: 1,
		FileSize: int64(pages) * PageSize, OpsPerThread: pages,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFig8CachedAnchor(t *testing.T) {
	// NVDC-Cached 4 KB randread @1 thread: paper 1835 MB/s (70% of the
	// 2606 MB/s baseline).
	s := mustSystem(t, DefaultConfig())
	pages := s.Layout.CachedPages()
	prefillCache(t, s, pages)
	tgt := s.NewFioTarget()
	tgt.SetWalkFootprint(15 << 30) // the host maps the full 15 GB slot space
	res, err := fio.Run(tgt, fio.Job{
		Pattern: fio.RandRead, BlockSize: PageSize, NumJobs: 1,
		FileSize: int64(pages) * PageSize, OpsPerThread: 1500, WarmupOps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if misses := s.Driver.Stats().Misses - uint64(pages); misses > 5 {
		t.Fatalf("cached run missed %d times", misses)
	}
	got := res.BandwidthMBps()
	if got < 1400 || got > 2300 {
		t.Fatalf("NVDC-Cached 4K randread = %.0f MB/s, want ~1835 (+/-25%%)", got)
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

// prefillFTL writes every logical page directly into the FTL (zero data —
// the NAND model deduplicates it) so uncached reads hit real media instead
// of the unmapped-page shortcut.
func prefillFTL(t *testing.T, s *System) {
	t.Helper()
	zero := make([]byte, PageSize)
	n := s.FTL.LogicalPages()
	pending := 0
	for p := int64(0); p < n; p++ {
		pending++
		s.FTL.WritePage(p, zero, func(err error) {
			if err != nil {
				t.Errorf("prefill: %v", err)
			}
			pending--
		})
		if pending >= 512 {
			if err := s.RunUntil(func() bool { return pending < 64 }, 10*sim.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.RunUntil(func() bool { return pending == 0 }, 10*sim.Second); err != nil {
		t.Fatal(err)
	}
}

func TestFig8UncachedAnchor(t *testing.T) {
	// NVDC-Uncached 4 KB randread @1 thread: paper 57.3 MB/s (69.8 us/op).
	// A larger NAND keeps the scaled footprint:cache ratio high enough that
	// nearly every access misses, as on the 120 GB / 16 GB testbed.
	cfg := DefaultConfig()
	cfg.NAND.BlocksPerDie = 512 // 512 MB raw vs 16 MB cache
	s := mustSystem(t, cfg)
	prefillFTL(t, s)
	tgt := s.NewFioTarget()
	tgt.SetWalkFootprint(120 << 30)
	slots := s.Layout.NumSlots
	res, err := fio.Run(tgt, fio.Job{
		Pattern: fio.RandRead, BlockSize: PageSize, NumJobs: 1,
		FileSize: tgt.Capacity(), OpsPerThread: 300, WarmupOps: slots + 50,
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.BandwidthMBps()
	if got < 40 || got > 80 {
		t.Fatalf("NVDC-Uncached 4K randread = %.0f MB/s, want ~57 (+/-30%%)", got)
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

func TestCachedSaturationBelowBaseline(t *testing.T) {
	// Fig. 9 shape: NVDC-Cached saturates around half the baseline's
	// plateau because of the driver's serialized section.
	var plateau float64
	for _, jobs := range []int{8} {
		s := mustSystem(t, DefaultConfig())
		pages := s.Layout.CachedPages()
		prefillCache(t, s, pages)
		tgt := s.NewFioTarget()
		tgt.SetWalkFootprint(15 << 30)
		res, err := fio.Run(tgt, fio.Job{
			Pattern: fio.RandRead, BlockSize: PageSize, NumJobs: jobs,
			FileSize: int64(pages) * PageSize, OpsPerThread: 400, WarmupOps: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		plateau = res.BandwidthMBps()
	}
	// Paper: 4341 MB/s at 8 threads.
	if plateau < 3300 || plateau > 5600 {
		t.Fatalf("NVDC-Cached 8-thread plateau = %.0f MB/s, want ~4341 (+/-25%%)", plateau)
	}
}

func TestSmallAccessAdvantage(t *testing.T) {
	// Fig. 10: at 128 B, NVDC-Cached beats the baseline (paper: 1.15x)
	// because the smaller mapped footprint makes page walks cheaper.
	s := mustSystem(t, DefaultConfig())
	pages := s.Layout.CachedPages()
	prefillCache(t, s, pages)
	tgt := s.NewFioTarget()
	tgt.SetWalkFootprint(15 << 30)
	res, err := fio.Run(tgt, fio.Job{
		Pattern: fio.RandRead, BlockSize: 128, NumJobs: 1,
		FileSize: int64(pages) * PageSize, OpsPerThread: 2000, WarmupOps: 100,
		Align: PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	nvdcKIOPS := res.KIOPS()
	// Paper: 2147 KIOPS NVDC vs ~1867 baseline.
	if nvdcKIOPS < 1700 || nvdcKIOPS > 2700 {
		t.Fatalf("NVDC 128B = %.0f KIOPS, want ~2147 (+/-20%%)", nvdcKIOPS)
	}
}

// TestFioHitAllocs pins the allocation count of the hit path: one
// resident-page 4 KiB Do read or write, run to completion, allocates
// nothing once the System's op records, transfer buffers and the iMC's WPQ
// buffers are warm. Refresh is stopped so the count is the op's own (a
// refresh cycle allocates on its own schedule).
func TestFioHitAllocs(t *testing.T) {
	s := mustSystem(t, DefaultConfig())
	prefillCache(t, s, 4)
	s.IMC.StopRefresh()
	tgt := s.NewFioTarget()
	done := false
	markDone := func() { done = true }
	pending := func() bool { return !done }
	for _, write := range []bool{false, true} {
		if s.Driver.SlotOf(1) < 0 {
			t.Fatal("page 1 not resident")
		}
		allocs := testing.AllocsPerRun(100, func() {
			done = false
			tgt.Do(PageSize, PageSize, write, markDone)
			s.K.RunWhile(pending)
		})
		if allocs != 0 {
			t.Errorf("write=%v: %v allocs per resident 4 KiB op, want 0", write, allocs)
		}
	}
	if misses := s.Driver.Stats().Misses; misses != 4 {
		t.Fatalf("%d misses, want only the 4 prefill faults", misses)
	}
}

// TestMemberMissAllocs pins the allocation count of the miss path: a 4 KiB
// read or write that evicts with a CP writeback and refills with a CP
// cachefill, through the real NVMC, FTL and NAND with refresh running,
// allocates at most one object per op once the records are warm (missRig).
func TestMemberMissAllocs(t *testing.T) {
	r := newMissRig(t)
	for _, write := range []bool{false, true} {
		misses := r.s.Driver.Stats().Misses
		allocs := testing.AllocsPerRun(200, func() { r.op(write) })
		if allocs > 1 {
			t.Errorf("write=%v: %v allocs per missing 4 KiB op, want <= 1", write, allocs)
		}
		if got := r.s.Driver.Stats().Misses - misses; got != 201 {
			t.Fatalf("write=%v: %d misses in 201 ops", write, got)
		}
	}
	if err := r.s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleRefreshAllocs: an idle member run event by event (no idle warp)
// allocates nothing per tREFI. Each interval runs the whole refresh chain:
// the REF event and its bus grant, the detector's decode, the NVMC's window
// and its CP polls.
func TestIdleRefreshAllocs(t *testing.T) {
	s := mustSystem(t, DefaultConfig())
	s.K.RunFor(10 * s.Config.TREFI)
	windows := s.NVMC.Stats().WindowsSeen
	if allocs := testing.AllocsPerRun(50, func() { s.K.RunFor(s.Config.TREFI) }); allocs != 0 {
		t.Errorf("%v allocs per tREFI on an idle member, want 0", allocs)
	}
	if got := s.NVMC.Stats().WindowsSeen - windows; got < 50 {
		t.Fatalf("%d windows in 51 tREFI", got)
	}
}

// TestFioWriteLeavesZerosInSlot: fio writes carry no data, so the bytes
// they cover read back as zeros, exactly as when every chunk was a fresh
// zeroed buffer, even after a read has filled the read sink; bytes outside
// a sub-page write keep their contents. Reads of nonzero bytes land in the
// read sink, never in the zero source, which stays all zeros.
func TestFioWriteLeavesZerosInSlot(t *testing.T) {
	s := mustSystem(t, DefaultConfig())
	const lpn = 3
	want := pattern(0x5A, PageSize)
	stored := false
	s.Store(lpn*PageSize, want, func() { stored = true })
	if err := s.RunUntil(func() bool { return stored }, sim.Second); err != nil {
		t.Fatal(err)
	}
	tgt := s.NewFioTarget()
	do := func(off, n int, write bool) {
		t.Helper()
		done := false
		tgt.Do(lpn*PageSize+int64(off), n, write, func() { done = true })
		if err := s.RunUntil(func() bool { return done }, sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	do(0, PageSize, false)
	for _, w := range []struct{ off, n int }{{1024, 512}, {2048, 2048}} {
		do(w.off, w.n, true)
		clear(want[w.off : w.off+w.n])
	}
	got := make([]byte, PageSize)
	if err := s.DRAM.CopyOut(s.Layout.SlotAddr(s.Driver.SlotOf(lpn)), got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("slot byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}
	do(0, 1024, false)
	for i, b := range s.ZeroSource() {
		if b != 0 {
			t.Fatalf("zero source byte %d = %#x", i, b)
		}
	}
}
