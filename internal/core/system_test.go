package core

import (
	"bytes"
	"testing"

	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
)

// smallConfig returns a fast system for tests: 1 MB cache, 8 MB NAND.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.NAND.BlocksPerDie = 32
	cfg.NAND.PagesPerBlock = 16
	cfg.NAND.ProgramLatency = 20 * sim.Microsecond
	cfg.NAND.EraseLatency = 100 * sim.Microsecond
	return cfg
}

func mustSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i*31)
	}
	return b
}

// storeSync stores and waits for completion.
func storeSync(t *testing.T, s *System, off int64, data []byte) {
	t.Helper()
	done := false
	s.Store(off, data, func() { done = true })
	if err := s.RunUntil(func() bool { return done }, 100*sim.Millisecond); err != nil {
		t.Fatalf("store at %d: %v", off, err)
	}
}

func loadSync(t *testing.T, s *System, off int64, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	done := false
	s.Load(off, buf, func() { done = true })
	if err := s.RunUntil(func() bool { return done }, 100*sim.Millisecond); err != nil {
		t.Fatalf("load at %d: %v", off, err)
	}
	return buf
}

func TestReadYourWritesThroughFullStack(t *testing.T) {
	s := mustSystem(t, smallConfig())
	msg := pattern(0x5A, PageSize)
	storeSync(t, s, 7*PageSize, msg)
	got := loadSync(t, s, 7*PageSize, PageSize)
	if !bytes.Equal(got, msg) {
		t.Fatal("read-your-writes violated")
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	s := mustSystem(t, smallConfig())
	got := loadSync(t, s, 42*PageSize, 512)
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten page reads non-zero")
		}
	}
}

func TestEvictionWritebackAndRefill(t *testing.T) {
	// Write more pages than the cache has slots; every page must read back
	// correctly after its slot was evicted and refilled from Z-NAND.
	s := mustSystem(t, smallConfig())
	slots := s.Layout.NumSlots
	pages := slots + slots/2
	if int64(pages) > s.Driver.CapacityPages() {
		t.Fatalf("test needs %d pages, device has %d", pages, s.Driver.CapacityPages())
	}
	for p := 0; p < pages; p++ {
		storeSync(t, s, int64(p)*PageSize, pattern(byte(p), 256))
	}
	st := s.Driver.Stats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("no evictions/writebacks despite overflow: %+v", st)
	}
	for p := 0; p < pages; p++ {
		got := loadSync(t, s, int64(p)*PageSize, 256)
		if !bytes.Equal(got, pattern(byte(p), 256)) {
			t.Fatalf("page %d corrupted across eviction", p)
		}
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

func TestNoCollisionsUnderConcurrentTraffic(t *testing.T) {
	// Host traffic + NVMC window traffic for a long stretch: the §III-B
	// guarantee is zero collisions and zero DRAM violations.
	s := mustSystem(t, smallConfig())
	slots := s.Layout.NumSlots
	rng := sim.NewRand(3)
	inFlight := 0
	for i := 0; i < 200; i++ {
		off := rng.Int63n(int64(slots*2)) * PageSize
		inFlight++
		s.Store(off, pattern(byte(i), 128), func() { inFlight-- })
		// Interleave host reads of cached pages (bus traffic outside
		// windows) without waiting for the store.
		if i%3 == 0 {
			s.Load(off, make([]byte, 64), nil)
		}
		if i%10 == 9 {
			if err := s.RunUntil(func() bool { return inFlight == 0 }, sim.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.RunUntil(func() bool { return inFlight == 0 }, sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if s.NVMC.Stats().WindowsSeen == 0 {
		t.Fatal("NVMC never saw a window")
	}
}

func TestMechanismDisabledCollides(t *testing.T) {
	// Ablation: with the refresh detector disabled the NVMC free-runs and
	// its accesses are flagged as collisions — the §III-B failure mode.
	cfg := smallConfig()
	cfg.MechanismEnabled = false
	s := mustSystem(t, cfg)
	// With the detector off the NVMC never gets windows, so drive a raw
	// out-of-window access the way a mechanism-less design would.
	if err := s.Channel.NVMCAccess(s.Layout.SlotAddr(0), make([]byte, PageSize), true); err != nil {
		t.Fatal(err)
	}
	if s.Channel.CollisionCount() == 0 {
		t.Fatal("mechanism-off NVMC access not flagged as collision")
	}
}

func TestUncachedLatencyMatchesWindowBudget(t *testing.T) {
	// §VII-B2 calibration: a miss on a full cache (writeback + cachefill)
	// costs several refresh windows — the PoC measured 8.9x tREFI (69.8 us).
	// Accept the 6-11 window band: above the 6-window theoretical minimum,
	// in the neighborhood of the PoC's measured lag.
	s := mustSystem(t, smallConfig())
	slots := s.Layout.NumSlots
	// Fill every slot.
	for p := 0; p < slots; p++ {
		storeSync(t, s, int64(p)*PageSize, pattern(byte(p), 64))
	}
	if s.Driver.Stats().FreeSlots != 0 {
		t.Fatalf("cache not full: %d free", s.Driver.Stats().FreeSlots)
	}
	// Measure a miss.
	start := s.K.Now()
	_ = loadSync(t, s, int64(slots+5)*PageSize, 64)
	lat := s.K.Now().Sub(start)
	trefi := s.Config.TREFI
	windows := float64(lat) / float64(trefi)
	if windows < 6 || windows > 11 {
		t.Fatalf("uncached miss = %v (%.1f windows), want 6-11 windows", lat, windows)
	}
}

func TestCachedLatencyFast(t *testing.T) {
	s := mustSystem(t, smallConfig())
	storeSync(t, s, 0, pattern(1, PageSize))
	start := s.K.Now()
	_ = loadSync(t, s, 0, PageSize)
	lat := s.K.Now().Sub(start)
	// A cached 4 KB load is bus transfer + maybe one refresh: microseconds.
	if lat > 3*sim.Microsecond {
		t.Fatalf("cached 4KB load = %v, want < 3us", lat)
	}
}

func TestFaultCoalescing(t *testing.T) {
	s := mustSystem(t, smallConfig())
	done := 0
	for i := 0; i < 4; i++ {
		s.Driver.Fault(99, false, func(int) { done++ })
	}
	if err := s.RunUntil(func() bool { return done == 4 }, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := s.Driver.Stats()
	if st.Misses != 1 || st.CoalescedFaults != 3 {
		t.Fatalf("misses=%d coalesced=%d, want 1/3", st.Misses, st.CoalescedFaults)
	}
}

func TestPowerFailPersistsDirtyData(t *testing.T) {
	cfg := smallConfig()
	s := mustSystem(t, cfg)
	// Dirty several pages; do NOT wait for any writeback.
	msgs := map[int64][]byte{}
	for p := int64(0); p < 8; p++ {
		m := pattern(byte(0x80+p), PageSize)
		msgs[p] = m
		storeSync(t, s, p*PageSize, m)
	}
	flushed, err := s.PowerFail()
	if err != nil {
		t.Fatal(err)
	}
	if flushed == 0 {
		t.Fatal("power fail flushed nothing despite dirty slots")
	}
	// "Reboot": a fresh system over the same NAND/FTL state. Simulate by
	// reading the pages straight from the FTL.
	for p, want := range msgs {
		var got []byte
		s.FTL.ReadPage(p, func(d []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			got = d
		})
		s.K.Run()
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("page %d lost across power failure", p)
		}
	}
}

func TestRecoveryFromMetadata(t *testing.T) {
	s := mustSystem(t, smallConfig())
	for p := int64(0); p < 5; p++ {
		storeSync(t, s, p*PageSize, pattern(byte(p), 64))
	}
	// Snapshot the metadata area as the firmware would read it.
	meta := make([]byte, s.Layout.MetaSize)
	if err := s.DRAM.CopyOut(s.Layout.MetaOffset, meta); err != nil {
		t.Fatal(err)
	}
	n, err := s.Driver.RecoverFromMetadata(meta)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("recovered %d mappings, want 5", n)
	}
	for p := int64(0); p < 5; p++ {
		if !s.Driver.IsResident(p) {
			t.Fatalf("page %d not resident after recovery", p)
		}
	}
}

func TestCPUCacheCoherentPath(t *testing.T) {
	// With the functional CPU cache attached, eviction/refill must still be
	// byte-correct thanks to the driver's clflush/invalidate discipline.
	cfg := smallConfig()
	cfg.CPUCacheBytes = 32 << 10
	s := mustSystem(t, cfg)
	slots := s.Layout.NumSlots
	pages := slots + 8
	for p := 0; p < pages; p++ {
		storeSync(t, s, int64(p)*PageSize, pattern(byte(p*3), 128))
	}
	for p := 0; p < pages; p++ {
		got := loadSync(t, s, int64(p)*PageSize, 128)
		if !bytes.Equal(got, pattern(byte(p*3), 128)) {
			t.Fatalf("page %d corrupted with CPU cache in path", p)
		}
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUPolicyKeepsHotPages(t *testing.T) {
	cfg := smallConfig()
	cfg.Driver.Policy = nvdc.PolicyLRU
	s := mustSystem(t, cfg)
	slots := s.Layout.NumSlots
	// Touch page 0 repeatedly while streaming through 2x slots.
	for p := 1; p < slots*2; p++ {
		storeSync(t, s, int64(p)*PageSize, pattern(byte(p), 64))
		if p%4 == 0 {
			_ = loadSync(t, s, 0, 64) // keep page 0 hot
		}
	}
	if !s.Driver.IsResident(0) {
		t.Fatal("LRU evicted the hottest page")
	}
}

func TestLRCPolicyEvictsByCachingOrder(t *testing.T) {
	// Under LRC, touching page 0 does NOT protect it: eviction follows
	// caching order (the paper's §IV-B caveat).
	s := mustSystem(t, smallConfig())
	slots := s.Layout.NumSlots
	storeSync(t, s, 0, pattern(9, 64))
	for p := 1; p <= slots; p++ {
		_ = loadSync(t, s, 0, 64) // hit page 0 constantly
		storeSync(t, s, int64(p)*PageSize, pattern(byte(p), 64))
	}
	if s.Driver.IsResident(0) {
		t.Fatal("LRC kept the first-cached page despite overflow")
	}
}

func TestCombinedCommandAblation(t *testing.T) {
	// Future-work item 4: merged writeback+cachefill must stay correct and
	// use fewer CP commands.
	cfg := smallConfig()
	cfg.Driver.CombineWBCF = true
	s := mustSystem(t, cfg)
	slots := s.Layout.NumSlots
	pages := slots + 10
	for p := 0; p < pages; p++ {
		storeSync(t, s, int64(p)*PageSize, pattern(byte(p), 96))
	}
	for p := 0; p < pages; p++ {
		got := loadSync(t, s, int64(p)*PageSize, 96)
		if !bytes.Equal(got, pattern(byte(p), 96)) {
			t.Fatalf("page %d corrupted with combined commands", p)
		}
	}
	st := s.Driver.Stats()
	if st.CombinedCmds == 0 {
		t.Fatal("no combined commands issued")
	}
	if st.Writebacks != 0 {
		t.Fatalf("separate writebacks (%d) despite CombineWBCF", st.Writebacks)
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

func TestTrackDirtySkipsCleanWriteback(t *testing.T) {
	cfg := smallConfig()
	cfg.Driver.TrackDirty = true
	s := mustSystem(t, cfg)
	slots := s.Layout.NumSlots
	// Fill the cache with READS (clean pages), then stream more reads:
	// evictions must skip writeback.
	for p := 0; p < slots+10; p++ {
		_ = loadSync(t, s, int64(p)*PageSize, 64)
	}
	st := s.Driver.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions")
	}
	if st.Writebacks != 0 {
		t.Fatalf("%d writebacks for clean victims with TrackDirty", st.Writebacks)
	}
}

func TestWindowUtilizationBounded(t *testing.T) {
	// The NVMC must never move more than MaxBytesPerWindow of data per
	// window: bytes moved <= windows seen * budget.
	s := mustSystem(t, smallConfig())
	slots := s.Layout.NumSlots
	for p := 0; p < slots+20; p++ {
		storeSync(t, s, int64(p)*PageSize, pattern(byte(p), 64))
	}
	st := s.NVMC.Stats()
	moved := st.BytesToDRAM + st.BytesFromDRAM
	budget := uint64(s.Config.NVMC.MaxBytesPerWindow) * st.WindowsSeen
	if moved > budget {
		t.Fatalf("NVMC moved %d bytes in %d windows (budget %d)", moved, st.WindowsSeen, budget)
	}
}

func TestTraceRecordsChannelActivity(t *testing.T) {
	cfg := smallConfig()
	cfg.TraceCapacity = 256
	s := mustSystem(t, cfg)
	storeSync(t, s, 0, pattern(1, 64))
	// Let a few refresh cycles (and their windows) pass.
	s.RunFor(50 * sim.Microsecond)
	if s.Trace == nil {
		t.Fatal("trace not attached")
	}
	if s.Trace.Count(trace.KindRefresh) == 0 {
		t.Fatal("no refreshes traced")
	}
	if s.Trace.Count(trace.KindWindow) == 0 {
		t.Fatal("no windows traced")
	}
	if s.Trace.Count(trace.KindCollision) != 0 {
		t.Fatal("collision traced on healthy system")
	}
}

func TestSelfRefreshSilencesNVMC(t *testing.T) {
	// §IV-A: SRE decodes differently from REF, so the detector must not
	// fire and the NVMC must get no windows while the DIMM self-refreshes.
	s := mustSystem(t, smallConfig())
	s.RunFor(50 * sim.Microsecond)
	s.IMC.EnterSelfRefresh()
	s.RunFor(10 * sim.Microsecond) // let the SRE land
	before := s.NVMC.Stats().WindowsSeen
	det := s.Detector.Stats().Detections
	s.RunFor(300 * sim.Microsecond)
	if got := s.NVMC.Stats().WindowsSeen; got != before {
		t.Fatalf("NVMC saw %d windows during self-refresh", got-before)
	}
	if s.Detector.Stats().Detections != det {
		t.Fatal("detector fired during self-refresh")
	}
	s.IMC.ExitSelfRefresh()
	s.RunFor(100 * sim.Microsecond)
	if s.NVMC.Stats().WindowsSeen == before {
		t.Fatal("windows did not resume after SRX")
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

// TestSelfRefreshEntryIssuesQueuedREFs: SRE reaches the DIMM only at its
// data-bus grant, so the REFs that came due while a host burst held the
// bus, queued ahead of SRE, must still be issued to the DRAM.
func TestSelfRefreshEntryIssuesQueuedREFs(t *testing.T) {
	s := mustSystem(t, smallConfig())
	trefi := s.Config.TREFI
	s.RunFor(50 * sim.Microsecond)
	refs := s.DRAM.RefreshCount()
	due0, _ := s.IMC.NextRefreshAt()
	s.IMC.Read(0, make([]byte, 256<<10), nil) // holds the bus ~2.7 tREFI
	s.RunFor(2*trefi + trefi/2)
	due1, _ := s.IMC.NextRefreshAt()
	queued := uint64(due1.Sub(due0) / trefi)
	if queued < 2 {
		t.Fatalf("only %d REFs queued behind the burst; the test needs 2", queued)
	}
	s.IMC.EnterSelfRefresh()
	s.RunFor(10 * sim.Microsecond) // the burst, the queued REFs, then SRE
	if !s.DRAM.InSelfRefresh() {
		t.Fatal("DRAM not in self-refresh after SRE's grant")
	}
	if got := s.DRAM.RefreshCount() - refs; got != queued {
		t.Fatalf("DRAM saw %d REFs, want the %d granted ahead of SRE", got, queued)
	}
	s.IMC.ExitSelfRefresh()
	s.RunFor(100 * sim.Microsecond)
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

func TestCoherenceDisciplineAblation(t *testing.T) {
	// §V-B both ways: with the clflush/sfence + invalidate discipline the
	// CPU-cached path survives evictions byte-perfectly (covered by
	// TestCPUCacheCoherentPath); with UnsafeNoFlush the same workload MUST
	// corrupt — stale CPU lines shadow NVMC fills and dirty lines are lost
	// to the writeback path.
	cfg := smallConfig()
	cfg.CPUCacheBytes = 32 << 10
	cfg.Driver.UnsafeNoFlush = true
	s := mustSystem(t, cfg)
	slots := s.Layout.NumSlots
	pages := slots + 16
	for p := 0; p < pages; p++ {
		storeSync(t, s, int64(p)*PageSize, pattern(byte(p*3), 128))
	}
	corrupted := 0
	for p := 0; p < pages; p++ {
		got := loadSync(t, s, int64(p)*PageSize, 128)
		if !bytes.Equal(got, pattern(byte(p*3), 128)) {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("UnsafeNoFlush produced no corruption — the coherence discipline would be unnecessary")
	}
	t.Logf("coherence ablation: %d/%d pages corrupted without clflush/invalidate", corrupted, pages)
}

type detStats struct {
	driver nvdc.Stats
	nvmc   interface{}
}

func TestDeterminism(t *testing.T) {
	// Identical configurations and workloads must produce identical
	// simulations — the reproducibility guarantee every experiment rests on.
	run := func() (uint64, sim.Time, detStats) {
		s := mustSystem(t, smallConfig())
		slots := s.Layout.NumSlots
		rng := sim.NewRand(123)
		for i := 0; i < 60; i++ {
			off := rng.Int63n(int64(slots+40)) * PageSize
			storeSync(t, s, off, pattern(byte(i), 200))
		}
		return s.K.Processed(), s.K.Now(), detStats{
			driver: s.Driver.Stats(),
			nvmc:   s.NVMC.Stats(),
		}
	}
	e1, t1, s1 := run()
	e2, t2, s2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("nondeterministic: events %d vs %d, time %v vs %v", e1, e2, t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("nondeterministic stats:\n%+v\n%+v", s1, s2)
	}
}

func TestWeakPersistenceDomain(t *testing.T) {
	// §V-C both ways. PoC-faithful (default): stores still sitting in the
	// WPQ when power fails can lose the race against the firmware flush.
	// With StrictADR (the paper's proposed future work), nothing is lost.
	run := func(strict bool) (lost int) {
		cfg := smallConfig()
		cfg.StrictADR = strict
		s := mustSystem(t, cfg)
		// Make pages resident first so the writes below are pure stores.
		for p := int64(0); p < 8; p++ {
			storeSync(t, s, p*PageSize, pattern(byte(p), 64))
		}
		// Post stores WITHOUT waiting: they sit in the WPQ.
		for p := int64(0); p < 8; p++ {
			s.Store(p*PageSize, pattern(byte(0xC0+p), 64), nil)
		}
		if s.IMC.WPQDepth() == 0 {
			t.Fatal("test setup: WPQ already drained")
		}
		if _, err := s.PowerFail(); err != nil {
			t.Fatal(err)
		}
		return s.LostWPQWrites()
	}
	if lost := run(true); lost != 0 {
		t.Fatalf("StrictADR lost %d writes", lost)
	}
	if lost := run(false); lost == 0 {
		t.Fatal("PoC-faithful power fail lost nothing despite a full WPQ (the weak domain would be a non-issue)")
	}
}
