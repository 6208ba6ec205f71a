package nvdc

// Driver-level tests against a minimal backing: a stub iMC is impractical
// (the driver's contract is the full machine), so these tests exercise the
// pure-logic surfaces — construction validation, trim, recovery and the
// metadata shadow — through a real but tiny system assembled by hand.

import (
	"fmt"
	"testing"

	"nvdimmc/internal/bus"
	"nvdimmc/internal/cp"
	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/dram"
	"nvdimmc/internal/hostmem"
	"nvdimmc/internal/imc"
	"nvdimmc/internal/sim"
)

func newDriver(t *testing.T) (*sim.Kernel, *Driver, hostmem.Layout) {
	t.Helper()
	k, d, layout, _ := newRig(t, 64, 0)
	return k, d, layout
}

// newRig assembles a driver over a DRAM of rows rows (128 KiB each). With
// slots == 0 the layout is NewLayout's with a 16 KiB metadata area;
// otherwise it holds exactly slots slots.
func newRig(tb testing.TB, rows, slots int) (*sim.Kernel, *Driver, hostmem.Layout, *dram.Device) {
	tb.Helper()
	k := sim.NewKernel()
	dcfg := dram.DefaultConfig(ddr4.DDR4_1600)
	dcfg.Rows = rows
	dcfg.Timing.TRFC = 1250 * sim.Nanosecond
	dev := dram.New(k, dcfg)
	ch := bus.New(k, dev)
	mc := imc.New(k, ch, imc.DefaultConfig())
	layout, err := hostmem.NewLayout(dev.Capacity(), 16<<10, 0.9)
	if err != nil {
		tb.Fatal(err)
	}
	if slots > 0 {
		meta := (cp.MetaSizeFor(slots) + PageSize - 1) &^ (PageSize - 1)
		layout = hostmem.Layout{
			Size: dev.Capacity(), CPOffset: 0, CPSize: PageSize,
			MetaOffset: PageSize, MetaSize: meta,
			SlotsOffset: PageSize + meta, NumSlots: slots,
		}
	}
	cfg := Config{Layout: layout}
	// No NVMC behind this rig: route every miss through the fast-fill path
	// (nothing on media) so faults never need a CP ack.
	cfg.MediaWritten = func(int64) bool { return false }
	d, err := New(k, mc, nil, 4096, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	k.Run() // drain the metadata-init write
	return k, d, layout, dev
}

func TestNewValidatesLayout(t *testing.T) {
	k := sim.NewKernel()
	dcfg := dram.DefaultConfig(ddr4.DDR4_1600)
	dcfg.Rows = 64
	dev := dram.New(k, dcfg)
	ch := bus.New(k, dev)
	mc := imc.New(k, ch, imc.DefaultConfig())
	// Metadata area too small for the slot count must be rejected.
	layout := hostmem.Layout{
		Size: dev.Capacity(), CPOffset: 0, CPSize: 4096,
		MetaOffset: 4096, MetaSize: 4096,
		SlotsOffset: 8192, NumSlots: 1 << 20,
	}
	if _, err := New(k, mc, nil, 4096, Config{Layout: layout}); err == nil {
		t.Fatal("undersized metadata accepted")
	}
}

func TestMetadataShadowMatchesState(t *testing.T) {
	k, d, _ := newDriver(t)
	done := 0
	for p := int64(0); p < 5; p++ {
		d.Fault(p, p%2 == 0, func(int) { done++ })
	}
	k.RunWhile(func() bool { return done < 5 })
	k.Run() // drain metadata writes
	entries, err := cp.DecodeMeta(d.metaShadow)
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for slot, e := range entries {
		if !e.Valid {
			continue
		}
		valid++
		lpn := int64(e.NANDPage)
		if got := d.SlotOf(lpn); got != slot {
			t.Fatalf("metadata says slot %d holds lpn %d; driver says slot %d", slot, lpn, got)
		}
		if e.Dirty != d.slots[slot].dirty {
			t.Fatalf("slot %d dirty bit mismatch", slot)
		}
	}
	if valid != 5 {
		t.Fatalf("metadata has %d valid entries, want 5", valid)
	}
}

func TestTrimReleasesSlot(t *testing.T) {
	k, d, _ := newDriver(t)
	done := false
	d.Fault(9, true, func(int) { done = true })
	k.RunWhile(func() bool { return !done })
	free := d.Stats().FreeSlots
	d.Trim(9)
	if d.IsResident(9) {
		t.Fatal("trimmed page still resident")
	}
	if d.Stats().FreeSlots != free+1 {
		t.Fatal("slot not returned to the free pool")
	}
	k.Run()
	entries, err := cp.DecodeMeta(d.metaShadow)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Valid && int64(e.NANDPage) == 9 {
			t.Fatal("metadata still maps the trimmed page")
		}
	}
	// Trim of a non-resident page is a no-op.
	d.Trim(1234)
}

func TestRecoveryRejectsWrongSlotCount(t *testing.T) {
	_, d, _ := newDriver(t)
	bad := make([]byte, cp.MetaSizeFor(3))
	if err := cp.EncodeMeta(bad, make([]cp.MetaEntry, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RecoverFromMetadata(bad); err == nil {
		t.Fatal("mismatched slot count accepted")
	}
}

func TestRecoveryRoundTrip(t *testing.T) {
	k, d, _ := newDriver(t)
	done := 0
	for p := int64(0); p < 4; p++ {
		d.Fault(p, false, func(int) { done++ })
	}
	k.RunWhile(func() bool { return done < 4 })
	k.Run()
	snapshot := make([]byte, len(d.metaShadow))
	copy(snapshot, d.metaShadow)
	n, err := d.RecoverFromMetadata(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("recovered %d, want 4", n)
	}
	for p := int64(0); p < 4; p++ {
		if !d.IsResident(p) {
			t.Fatalf("page %d lost in recovery", p)
		}
	}
}

func TestRecoveryClearsDirtyBitsEverywhere(t *testing.T) {
	// Recovery marks every slot clean. The shadow, the DRAM copy and the
	// running checksum must all follow, or the first mapping change after
	// the reboot writes a header that matches neither table and a second
	// power failure finds the metadata unreadable.
	k, d, layout, dev := newRig(t, 64, 0)
	done := 0
	for p := int64(0); p < 4; p++ {
		d.Fault(p, true, func(int) { done++ })
	}
	k.RunWhile(func() bool { return done < 4 })
	k.Run()
	snapshot := append([]byte(nil), d.metaShadow...)
	if n, err := d.RecoverFromMetadata(snapshot); err != nil || n != 4 {
		t.Fatalf("recovered %d, %v; want 4", n, err)
	}
	k.Run()
	d.Trim(3)
	k.Run()
	shadow, err := cp.DecodeMeta(d.metaShadow)
	if err != nil {
		t.Fatalf("shadow after recovery + trim: %v", err)
	}
	onDRAM := make([]byte, layout.MetaSize)
	if err := dev.Peek(layout.MetaOffset, onDRAM); err != nil {
		t.Fatal(err)
	}
	fromDRAM, err := cp.DecodeMeta(onDRAM)
	if err != nil {
		t.Fatalf("DRAM metadata after recovery + trim: %v", err)
	}
	valid := 0
	for i, e := range shadow {
		if e != fromDRAM[i] {
			t.Fatalf("slot %d: shadow %+v, DRAM %+v", i, e, fromDRAM[i])
		}
		if e.Dirty {
			t.Fatalf("slot %d still dirty after recovery", i)
		}
		if e.Valid {
			valid++
		}
	}
	if valid != 3 {
		t.Fatalf("%d valid entries after trimming one of 4, want 3", valid)
	}
	if d.metaSum != cp.MetaChecksum(d.metaEntries) {
		t.Fatal("running checksum drifted from the table")
	}
}

func BenchmarkWriteMetaEntry(b *testing.B) {
	// One mapping change's metadata update, shadow and DRAM: the cost must
	// not grow with the slot count.
	for _, slots := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("slots=%dKi", slots>>10), func(b *testing.B) {
			rows := (slots+64)*PageSize/(128<<10) + 4
			k, d, _, _ := newRig(b, rows, slots)
			entries := [2]cp.MetaEntry{{NANDPage: 7, Valid: true}, {NANDPage: 7, Valid: true, Dirty: true}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.setMeta(i*7919%slots, entries[i&1])
				if i&255 == 255 {
					k.Run() // drain the posted bus writes
				}
			}
			k.Run()
		})
	}
}

func TestSerializeOrdersSections(t *testing.T) {
	k, d, _ := newDriver(t)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		d.Serialize(10*sim.Microsecond, func() { order = append(order, i) })
	}
	k.Run()
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("serialized sections out of order: %v", order)
	}
	// Each held the lock 10us: total >= 30us of simulated time.
	if k.Now() < sim.Time(30*sim.Microsecond) {
		t.Fatalf("lock not actually held: clock at %v", k.Now())
	}
}

func TestFaultRangePanics(t *testing.T) {
	_, d, _ := newDriver(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range fault accepted")
		}
	}()
	d.Fault(1<<40, false, func(int) {})
}

func TestHypotheticalModeStall(t *testing.T) {
	// The Fig. 12 mode: misses wait the exposed media stall, no CP traffic.
	k := sim.NewKernel()
	dcfg := dram.DefaultConfig(ddr4.DDR4_1600)
	dcfg.Rows = 64
	dev := dram.New(k, dcfg)
	ch := bus.New(k, dev)
	mc := imc.New(k, ch, imc.DefaultConfig())
	layout, err := hostmem.NewLayout(dev.Capacity(), 16<<10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Layout: layout}
	cfg.Hypothetical = true
	cfg.TD = 7800 * sim.Nanosecond
	d, err := New(k, mc, nil, 4096, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	start := k.Now()
	done := false
	d.Fault(3, false, func(int) { done = true })
	k.RunWhile(func() bool { return !done })
	lat := k.Now().Sub(start)
	// Exposed stall = 3 * tD * (1-0.7) = 7.02us, plus mapCost.
	wantStall := sim.Duration(float64(tdWaits) * float64(cfg.TD) * (1 - tdOverlap))
	if lat < wantStall || lat > wantStall+10*sim.Microsecond {
		t.Fatalf("hypothetical miss latency %v, want >= stall %v", lat, wantStall)
	}
	if d.Stats().Cachefills != 0 || d.Stats().AckPolls != 0 {
		t.Fatal("hypothetical mode touched the CP path")
	}
}

func TestDirtyTrackingSkipsCleanWB(t *testing.T) {
	// With TrackDirty, evicting a never-written slot needs no writeback:
	// the miss path goes straight to the (fast or CP) fill.
	k, d, _ := newDriver(t)
	// Fill ALL slots with clean faults.
	n := len(d.slots)
	done := 0
	for p := 0; p < n; p++ {
		d.Fault(int64(p), false, func(int) { done++ })
	}
	k.RunWhile(func() bool { return done < n })
	if d.Stats().FreeSlots != 0 {
		t.Fatalf("cache not full: %d free", d.Stats().FreeSlots)
	}
	// Flip dirty tracking on for the eviction decision: a clean victim must
	// not need a writeback, a dirty one must (white-box via claimSlot — the
	// full CP round trip is covered by the core integration tests).
	d.cfg.TrackDirty = true
	_, victimLPN, needWB := d.claimSlot()
	if victimLPN == noLPN {
		t.Fatal("expected an eviction from a full cache")
	}
	if needWB {
		t.Fatal("clean victim flagged for writeback under TrackDirty")
	}
	// Dirty a resident page; its eviction must demand a writeback.
	dirtyLPN := int64(0)
	if dirtyLPN == victimLPN {
		dirtyLPN = 1
	}
	d.markDirty(d.mapping[dirtyLPN])
	for {
		_, v, wb := d.claimSlot()
		if v == noLPN {
			t.Fatal("ran out of victims before the dirty page")
		}
		if v == dirtyLPN {
			if !wb {
				t.Fatal("dirty victim not flagged for writeback")
			}
			break
		}
		if wb {
			t.Fatalf("clean victim %d flagged for writeback", v)
		}
	}
	k.Run()
}

func TestAccessorsAndDirtyMark(t *testing.T) {
	k, d, layout := newDriver(t)
	if d.CapacityPages() != 4096 {
		t.Fatalf("capacity = %d", d.CapacityPages())
	}
	if d.Config().Layout.NumSlots != layout.NumSlots {
		t.Fatal("config accessor mismatch")
	}
	done := false
	d.Fault(5, false, func(int) { done = true })
	k.RunWhile(func() bool { return !done })
	slot := d.SlotOf(5)
	if d.slots[slot].dirty {
		t.Fatal("clean fault marked dirty")
	}
	// A write hit marks the slot (and metadata) dirty.
	d.Fault(5, true, func(int) {})
	k.Run()
	if !d.slots[slot].dirty {
		t.Fatal("write hit did not mark dirty")
	}
	entries, err := cp.DecodeMeta(d.metaShadow)
	if err != nil {
		t.Fatal(err)
	}
	if !entries[slot].Dirty {
		t.Fatal("metadata dirty bit not set")
	}
}

// TestRebootDropsPreCrashCPChain: CP steps queued before a power failure
// must not resume after the reboot. No NVMC sits behind the rig and every
// block counts as written, so no ack ever arrives and lpn 1's command is
// still being polled when the host halts. Recovering with those steps still
// queued must leave the driver exactly where recovering after draining them
// does: the old chain must not re-issue into the rebooted driver's mailbox
// slot or quarantine the slot recovery freed.
func TestRebootDropsPreCrashCPChain(t *testing.T) {
	run := func(drain bool) (Stats, map[string]uint64) {
		k, d, _, _ := newRig(t, 64, 0)
		d.cfg.MediaWritten = func(int64) bool { return true }
		ignore := func(int, error) {}
		d.FaultE(1, false, ignore)
		k.RunFor(20 * sim.Microsecond)
		if d.Stats().AckPolls == 0 {
			t.Fatal("lpn 1's ack poll had not started at the failure instant")
		}
		d.Halt()
		if drain {
			k.Run()
		}
		meta := append([]byte(nil), d.metaShadow...)
		if _, err := d.RecoverFromMetadata(meta); err != nil {
			t.Fatal(err)
		}
		d.FaultE(2, false, ignore)
		k.RunFor(100 * sim.Millisecond)
		return d.Stats(), d.Counters().Snapshot()
	}
	want, wantCtr := run(true)
	got, gotCtr := run(false)
	if got != want {
		t.Errorf("stats after an undrained reboot:\n%+v\nwant (drained first):\n%+v", got, want)
	}
	if fmt.Sprint(gotCtr) != fmt.Sprint(wantCtr) {
		t.Errorf("counters after an undrained reboot: %v, want %v", gotCtr, wantCtr)
	}
	if want.SlotsQuarantined != 1 {
		t.Errorf("%d slots quarantined, want 1 (lpn 2's cachefill failed hard)", want.SlotsQuarantined)
	}
}
