package imc

import (
	"bytes"
	"testing"

	"nvdimmc/internal/bus"
	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/dram"
	"nvdimmc/internal/sim"
)

func newSystem(cfg Config) (*sim.Kernel, *bus.Channel, *Controller) {
	k := sim.NewKernel()
	dcfg := dram.DefaultConfig(ddr4.DDR4_1600)
	dcfg.Rows = 1024
	dcfg.Timing.TRFC = cfg.TRFC
	dcfg.Timing.TREFI = cfg.TREFI
	dev := dram.New(k, dcfg)
	ch := bus.New(k, dev)
	c := New(k, ch, cfg)
	return k, ch, c
}

func TestRefreshCadence(t *testing.T) {
	cfg := DefaultConfig()
	k, ch, c := newSystem(cfg)
	c.StartRefresh()
	k.RunFor(sim.Millisecond)
	// 1 ms / 7.8 us = ~128 refreshes.
	got := c.Refreshes()
	if got < 126 || got > 129 {
		t.Fatalf("refreshes in 1ms = %d, want ~128", got)
	}
	if ch.Device().RefreshCount() != got {
		t.Fatalf("DRAM saw %d REFs, iMC issued %d", ch.Device().RefreshCount(), got)
	}
	if n := ch.Device().ViolationCount(); n != 0 {
		t.Fatalf("violations = %d: %v", n, ch.Device().Violations())
	}
}

func TestRefreshCadenceDoubled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TREFI = ddr4.TREFIHot // 3.9 us
	k, _, c := newSystem(cfg)
	c.StartRefresh()
	k.RunFor(sim.Millisecond)
	got := c.Refreshes()
	if got < 254 || got > 258 {
		t.Fatalf("refreshes in 1ms at tREFI2 = %d, want ~256", got)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	k, _, c := newSystem(cfg)
	c.StartRefresh()
	msg := bytes.Repeat([]byte("nvdc"), 1024) // 4 KB
	wrote, read := false, false
	got := make([]byte, len(msg))
	c.Write(100*4096, msg, func() {
		wrote = true
		c.Read(100*4096, got, func() { read = true })
	})
	k.RunFor(100 * sim.Microsecond)
	if !wrote || !read {
		t.Fatalf("wrote=%v read=%v", wrote, read)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("data mismatch through iMC")
	}
}

func TestWPQDrains(t *testing.T) {
	cfg := DefaultConfig()
	k, _, c := newSystem(cfg)
	for i := 0; i < 10; i++ {
		c.Write(int64(i)*4096, make([]byte, 4096), nil)
	}
	if c.WPQDepth() != 10 {
		t.Fatalf("WPQ depth = %d immediately after posting, want 10", c.WPQDepth())
	}
	k.RunFor(100 * sim.Microsecond)
	if c.WPQDepth() != 0 {
		t.Fatalf("WPQ depth = %d after drain, want 0", c.WPQDepth())
	}
}

func TestADRFlush(t *testing.T) {
	cfg := DefaultConfig()
	k, ch, c := newSystem(cfg)
	data := bytes.Repeat([]byte{0x5A}, 4096)
	c.Write(4096, data, nil)
	// Power fails before the bus transaction completes.
	if n, _ := c.ADRFlushRacing(false); n != 1 {
		t.Fatalf("ADR flushed %d entries, want 1", n)
	}
	got := make([]byte, 4096)
	if err := ch.Device().CopyOut(4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("ADR flush did not persist WPQ data")
	}
	_ = k
}

// TestWriteCopiesCallerBuffer: a posted write copies the caller's bytes
// into its WPQ entry, so the caller may reuse its buffer at once, even while
// the write waits for the bus.
func TestWriteCopiesCallerBuffer(t *testing.T) {
	k, ch, c := newSystem(DefaultConfig())
	c.Write(8192, make([]byte, 4096), nil) // occupies the bus
	buf := []byte{1, 2, 3, 4}
	c.Write(0, buf, nil)
	buf[0] = 99 // caller reuses its buffer before the bus grant
	k.Run()
	got := make([]byte, 4)
	if err := ch.Device().CopyOut(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("write observed caller mutation: %v", got)
	}
}

// TestWPQBufferSurvivesADRFlush: an ADR flush empties the WPQ but does not
// free the entries' buffers, because their bus grants still read them. A
// write posted after the flush must not reuse a buffer whose grant is
// still pending.
func TestWPQBufferSurvivesADRFlush(t *testing.T) {
	k, ch, c := newSystem(DefaultConfig())
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }
	c.Write(0, fill(0x11), nil) // granted at once
	c.Write(4096, fill(0x22), nil)
	if n, _ := c.ADRFlushRacing(false); n != 2 {
		t.Fatalf("ADR flushed %d entries, want 2", n)
	}
	c.Write(8192, fill(0x33), nil)
	k.Run()
	for addr, want := range map[int64]byte{0: 0x11, 4096: 0x22, 8192: 0x33} {
		got := make([]byte, 4096)
		if err := ch.Device().CopyOut(addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fill(want)) {
			t.Fatalf("addr %d holds %#x..., want %#x", addr, got[0], want)
		}
	}
	if c.WPQDepth() != 0 {
		t.Fatalf("WPQ depth %d after drain", c.WPQDepth())
	}
}

// TestWriteZeroAllocWhenWarm: once a WPQ buffer of the size is on the free
// list, a posted write and its bus transaction allocate nothing.
func TestWriteZeroAllocWhenWarm(t *testing.T) {
	k, _, c := newSystem(DefaultConfig())
	data := make([]byte, 2048)
	allocs := testing.AllocsPerRun(100, func() {
		c.Write(0, data, nil)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per posted write, want 0", allocs)
	}
}

func TestRefreshDelaysReads(t *testing.T) {
	// A read arriving just after REF waits out the full programmed tRFC.
	cfg := DefaultConfig()
	k, _, c := newSystem(cfg)
	c.StartRefresh()
	var start, end sim.Time
	// First REF at 7.8 us. Issue a read at 7.9 us (inside the 1.25 us hold).
	k.ScheduleAt(sim.Time(7900*sim.Nanosecond), func() {
		start = k.Now()
		c.Read(0, make([]byte, 64), func() { end = k.Now() })
	})
	k.RunFor(20 * sim.Microsecond)
	lat := end.Sub(start)
	// Must wait until 7.8us+1.25us = 9.05us, i.e. >= 1.15 us latency.
	if lat < 1100*sim.Nanosecond {
		t.Fatalf("read latency through refresh = %v, want >= ~1.15us", lat)
	}
}

func TestStopRefresh(t *testing.T) {
	cfg := DefaultConfig()
	k, _, c := newSystem(cfg)
	c.StartRefresh()
	k.RunFor(100 * sim.Microsecond)
	n := c.Refreshes()
	c.StopRefresh()
	k.RunFor(100 * sim.Microsecond)
	if c.Refreshes() > n+1 {
		t.Fatalf("refreshes continued after stop: %d -> %d", n, c.Refreshes())
	}
}

func TestHostTransferTimeScalesWithSize(t *testing.T) {
	cfg := DefaultConfig()
	_, ch, _ := newSystem(cfg)
	t4k := ch.HostTransferTime(4096, 1)
	t64 := ch.HostTransferTime(64, 1)
	if t4k <= t64 {
		t.Fatalf("4KB transfer %v not longer than 64B %v", t4k, t64)
	}
	// 4 KB = 64 bursts * 5 ns = 320 ns of pure data at DDR4-1600.
	pure := 64 * 4 * ddr4.DDR4_1600.TCK()
	if t4k < pure {
		t.Fatalf("4KB transfer %v shorter than pure burst time %v", t4k, pure)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tRFC >= tREFI accepted")
		}
	}()
	cfg := DefaultConfig()
	cfg.TRFC = cfg.TREFI
	newSystem(cfg)
}

func TestSelfRefreshStopsREF(t *testing.T) {
	cfg := DefaultConfig()
	k, ch, c := newSystem(cfg)
	c.StartRefresh()
	k.RunFor(100 * sim.Microsecond)
	before := c.Refreshes()
	c.EnterSelfRefresh()
	k.RunFor(200 * sim.Microsecond)
	if got := c.Refreshes(); got > before+1 {
		t.Fatalf("REF issued during self-refresh: %d -> %d", before, got)
	}
	if !ch.Device().InSelfRefresh() {
		t.Fatal("device not in self-refresh")
	}
	c.ExitSelfRefresh()
	k.RunFor(100 * sim.Microsecond)
	if ch.Device().InSelfRefresh() {
		t.Fatal("device stuck in self-refresh")
	}
	if c.Refreshes() <= before+1 {
		t.Fatal("refresh did not resume after SRX")
	}
	if n := ch.Device().ViolationCount(); n != 0 {
		t.Fatalf("violations: %v", ch.Device().Violations())
	}
}

// TestSelfRefreshSettlesAtGrant: the DIMM takes the last requested power
// state at each SRE/SRX grant. A repeated Enter issues one SRE, and an Exit
// that overtakes a pending entry leaves the DIMM refreshing normally.
func TestSelfRefreshSettlesAtGrant(t *testing.T) {
	cfg := DefaultConfig()
	k, ch, c := newSystem(cfg)
	c.StartRefresh()
	k.RunFor(20 * sim.Microsecond)

	c.Read(0, make([]byte, 64<<10), nil) // hold the bus so SRE queues
	c.EnterSelfRefresh()
	c.ExitSelfRefresh() // before SRE's grant: the entry is called off
	if c.InSelfRefresh() {
		t.Fatal("controller reports self-refresh after Exit")
	}
	before := c.Refreshes()
	k.RunFor(50 * sim.Microsecond)
	if ch.Device().InSelfRefresh() {
		t.Fatal("an entry overtaken by Exit reached the DIMM")
	}
	if c.Refreshes() == before {
		t.Fatal("refresh stopped after a called-off entry")
	}

	c.EnterSelfRefresh()
	c.EnterSelfRefresh()
	if !c.InSelfRefresh() {
		t.Fatal("controller does not report the pending entry")
	}
	k.RunFor(50 * sim.Microsecond)
	if !ch.Device().InSelfRefresh() {
		t.Fatal("DIMM not in self-refresh")
	}
	c.ExitSelfRefresh()
	k.RunFor(50 * sim.Microsecond)
	if ch.Device().InSelfRefresh() {
		t.Fatal("DIMM stuck in self-refresh")
	}
	if n := ch.Device().ViolationCount(); n != 0 {
		t.Fatalf("violations: %v", ch.Device().Violations())
	}
}

func TestPostponedRefreshCounter(t *testing.T) {
	cfg := DefaultConfig()
	k, _, c := newSystem(cfg)
	c.StartRefresh()
	// Saturate the bus with a long transfer so refreshes queue up late.
	c.Read(0, make([]byte, 1<<20), nil) // ~ms-scale hold
	k.RunFor(5 * sim.Millisecond)
	if c.PostponedRefreshes() == 0 {
		t.Fatal("no postponed refreshes recorded under a saturating transfer")
	}
}

// TestWarpRecyclesStaleRefreshEvent: each warp re-times the queued refresh
// event, the kernel's only one, to the next REF instead of stranding a stale
// one. The chain keeps the iMC's REF count equal to the DRAM's, and once
// warm the refresh chain allocates nothing.
func TestWarpRecyclesStaleRefreshEvent(t *testing.T) {
	cfg := DefaultConfig()
	k, ch, c := newSystem(cfg)
	dev := ch.Device()
	c.StartRefresh()
	const m = 4
	for round := 0; round < 3; round++ {
		k.RunFor(50 * sim.Microsecond)
		if k.Pending() != 1 {
			t.Fatalf("round %d: %d pending events, want only the next REF", round, k.Pending())
		}
		// The iMC, bus and DRAM halves of core.System's idle warp.
		nr, _ := c.NextRefreshAt()
		rLast := nr.Add(sim.Duration(m-1) * cfg.TREFI)
		ch.DataBus.WarpGrants(m, cfg.TRFC, rLast)
		ch.WarpIdleRefreshCycles(m, rLast, 0)
		dev.WarpIdleRefreshCycles(m, rLast, 0)
		c.WarpIdleRefreshes(m)
		nr, _ = c.NextRefreshAt()
		if at, ok := k.NextAt(); k.Pending() != 1 || !ok || at != nr {
			t.Fatalf("round %d: after the warp %d pending, next at %v; want one event at the next REF %v",
				round, k.Pending(), at, nr)
		}
		if c.Refreshes() != dev.RefreshCount() {
			t.Fatalf("round %d: after the warp the iMC counts %d REFs, DRAM %d", round, c.Refreshes(), dev.RefreshCount())
		}
		k.RunUntil(rLast.Add(cfg.TREFI / 2))
	}
	k.RunFor(100 * sim.Microsecond)
	if c.Refreshes() != dev.RefreshCount() {
		t.Fatalf("iMC issued %d REFs, DRAM saw %d", c.Refreshes(), dev.RefreshCount())
	}
	if n := dev.ViolationCount(); n != 0 {
		t.Fatalf("violations = %d: %v", n, dev.Violations())
	}
	if allocs := testing.AllocsPerRun(20, func() { k.RunFor(cfg.TREFI) }); allocs != 0 {
		t.Fatalf("%v allocs per tREFI of refresh, want 0", allocs)
	}
	if c.Refreshes() != dev.RefreshCount() {
		t.Fatalf("after the alloc run: iMC issued %d REFs, DRAM saw %d", c.Refreshes(), dev.RefreshCount())
	}
}
