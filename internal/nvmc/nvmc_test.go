package nvmc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nvdimmc/internal/bus"
	"nvdimmc/internal/cp"
	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/dram"
	"nvdimmc/internal/ftl"
	"nvdimmc/internal/hostmem"
	"nvdimmc/internal/imc"
	"nvdimmc/internal/nand"
	"nvdimmc/internal/refdet"
	"nvdimmc/internal/sim"
)

// rig is a minimal NVMC test bench: channel + iMC (refresh running) +
// detector + FTL + controller, no driver — tests speak raw CP protocol.
type rig struct {
	k      *sim.Kernel
	ch     *bus.Channel
	mc     *imc.Controller
	det    *refdet.Detector
	f      *ftl.FTL
	c      *Controller
	layout hostmem.Layout
	phase  bool
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	k := sim.NewKernel()
	dcfg := dram.DefaultConfig(ddr4.DDR4_1600)
	dcfg.Rows = 512
	dcfg.Timing.TRFC = 1250 * sim.Nanosecond
	dev := dram.New(k, dcfg)
	ch := bus.New(k, dev)
	imcCfg := imc.DefaultConfig()
	mc := imc.New(k, ch, imcCfg)
	det := refdet.New(k, dcfg.Timing.TCK)
	ch.AttachSnoop(det.Snoop())
	ncfg := nand.DefaultConfig()
	ncfg.InitialBadBlockPPM = 0
	ncfg.BlocksPerDie = 16
	ncfg.PagesPerBlock = 16
	arr := nand.New(k, ncfg)
	f := ftl.New(k, arr, ftl.DefaultConfig())
	layout, err := hostmem.NewLayout(dev.Capacity(), 64<<10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	c := New(k, ch, det, f, layout, cfg)
	mc.StartRefresh()
	return &rig{k: k, ch: ch, mc: mc, det: det, f: f, c: c, layout: layout}
}

// sendCP writes a command into the CP area and waits for the matching ack,
// returning the simulated duration from write to ack.
func (r *rig) sendCP(t *testing.T, cmd cp.Command) sim.Duration {
	t.Helper()
	r.phase = !r.phase
	cmd.Phase = r.phase
	var word [16]byte
	binary.LittleEndian.PutUint64(word[0:8], cmd.Encode())
	binary.LittleEndian.PutUint64(word[8:16], cmd.EncodeSecondary())
	start := r.k.Now()
	acked := false
	r.mc.Write(r.layout.CPOffset, word[:], nil)
	var poll func()
	poll = func() {
		buf := make([]byte, 8)
		r.mc.Read(r.layout.CPOffset+cp.AckOffset, buf, func() {
			ack := cp.DecodeAck(binary.LittleEndian.Uint64(buf))
			if ack.Phase == r.phase && ack.Status != cp.StatusIdle && ack.Status != cp.StatusBusy {
				acked = true
				return
			}
			r.k.Schedule(500*sim.Nanosecond, poll)
		})
	}
	poll()
	deadline := r.k.Now().Add(5 * sim.Millisecond)
	for !acked {
		if r.k.Now() > deadline || !r.k.Step() {
			t.Fatal("CP command never acked")
		}
	}
	return r.k.Now().Sub(start)
}

func TestCachefillMovesNANDToDRAM(t *testing.T) {
	r := newRig(t, DefaultConfig())
	want := bytes.Repeat([]byte{0xC3}, PageSize)
	wrote := false
	r.f.WritePage(7, want, func(err error) {
		if err != nil {
			t.Error(err)
		}
		wrote = true
	})
	r.k.RunWhile(func() bool { return !wrote })

	lat := r.sendCP(t, cp.Command{Opcode: cp.OpCachefill, DRAMSlot: 3, NANDPage: 7})
	got := make([]byte, PageSize)
	if err := r.ch.Device().CopyOut(r.layout.SlotAddr(3), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cachefill did not land NAND data in the slot")
	}
	// Latency quantized to refresh windows: >= 3 windows per §V-A.
	if lat < 3*ddr4.TREFI {
		t.Fatalf("cachefill in %v, below the 3-window floor (%v)", lat, 3*ddr4.TREFI)
	}
	if n := r.ch.CollisionCount(); n != 0 {
		t.Fatalf("collisions: %d", n)
	}
}

func TestWritebackMovesDRAMToNAND(t *testing.T) {
	r := newRig(t, DefaultConfig())
	want := bytes.Repeat([]byte{0x7E}, PageSize)
	if err := r.ch.Device().CopyIn(r.layout.SlotAddr(5), want); err != nil {
		t.Fatal(err)
	}
	r.sendCP(t, cp.Command{Opcode: cp.OpWriteback, DRAMSlot: 5, NANDPage: 9})
	// Let the posted program land.
	r.k.RunFor(2 * sim.Millisecond)
	var got []byte
	r.f.ReadPage(9, func(d []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = d
	})
	r.k.RunWhile(func() bool { return got == nil })
	if !bytes.Equal(got, want) {
		t.Fatal("writeback did not persist slot data")
	}
	if n := r.ch.CollisionCount(); n != 0 {
		t.Fatalf("collisions: %d", n)
	}
}

func TestCombinedCommand(t *testing.T) {
	r := newRig(t, DefaultConfig())
	fill := bytes.Repeat([]byte{0xAB}, PageSize)
	evict := bytes.Repeat([]byte{0xCD}, PageSize)
	wrote := false
	r.f.WritePage(2, fill, func(error) { wrote = true })
	r.k.RunWhile(func() bool { return !wrote })
	if err := r.ch.Device().CopyIn(r.layout.SlotAddr(4), evict); err != nil {
		t.Fatal(err)
	}
	r.sendCP(t, cp.Command{
		Opcode: cp.OpCombined,
		// Primary = cachefill target, secondary = writeback source.
		DRAMSlot: 4, NANDPage: 2,
		DRAMSlot2: 4, NANDPage2: 3,
	})
	r.k.RunFor(2 * sim.Millisecond)
	got := make([]byte, PageSize)
	if err := r.ch.Device().CopyOut(r.layout.SlotAddr(4), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill) {
		t.Fatal("combined: cachefill half did not land")
	}
	var nandGot []byte
	r.f.ReadPage(3, func(d []byte, _ error) { nandGot = d })
	r.k.RunWhile(func() bool { return nandGot == nil })
	if !bytes.Equal(nandGot, evict) {
		t.Fatal("combined: writeback half did not persist")
	}
	if r.c.Stats().Combined != 1 {
		t.Fatal("combined command not counted")
	}
}

func TestStalePhaseIgnored(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.sendCP(t, cp.Command{Opcode: cp.OpCachefill, DRAMSlot: 1, NANDPage: 1})
	fills := r.c.Stats().Cachefills
	// Leave the same phase in the CP area; the controller must not re-run.
	r.k.RunFor(200 * ddr4.TREFI)
	if got := r.c.Stats().Cachefills; got != fills {
		t.Fatalf("controller re-executed a stale command: %d -> %d", fills, got)
	}
}

func TestDisabledControllerIdles(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.c.SetEnabled(false)
	r.k.RunFor(100 * ddr4.TREFI)
	if r.c.Stats().WindowsSeen != 0 {
		t.Fatal("disabled controller entered windows")
	}
}

func TestWindowBudgetRespected(t *testing.T) {
	r := newRig(t, DefaultConfig())
	for i := 0; i < 5; i++ {
		r.sendCP(t, cp.Command{Opcode: cp.OpCachefill, DRAMSlot: uint32(i), NANDPage: uint32(i)})
	}
	st := r.c.Stats()
	moved := st.BytesToDRAM + st.BytesFromDRAM
	if moved > uint64(r.c.cfg.MaxBytesPerWindow)*st.WindowsSeen {
		t.Fatalf("moved %d bytes in %d windows", moved, st.WindowsSeen)
	}
}

func TestCommandDepth2Pipelines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CommandDepth = 2
	r := newRig(t, cfg)
	// Issue two commands into the two slots without waiting in between.
	acked := 0
	for i := 0; i < 2; i++ {
		i := i
		var word [16]byte
		c := cp.Command{Phase: true, Opcode: cp.OpCachefill, DRAMSlot: uint32(10 + i), NANDPage: uint32(i)}
		binary.LittleEndian.PutUint64(word[0:8], c.Encode())
		r.mc.Write(r.layout.CPOffset+int64(128*i), word[:], nil)
		var poll func()
		poll = func() {
			buf := make([]byte, 8)
			r.mc.Read(r.layout.CPOffset+int64(128*i+64), buf, func() {
				ack := cp.DecodeAck(binary.LittleEndian.Uint64(buf))
				if ack.Phase && ack.Status == cp.StatusDone {
					acked++
					return
				}
				r.k.Schedule(sim.Microsecond, poll)
			})
		}
		poll()
	}
	deadline := r.k.Now().Add(10 * sim.Millisecond)
	for acked < 2 && r.k.Now() < deadline {
		r.k.Step()
	}
	if acked != 2 {
		t.Fatalf("depth-2: only %d/2 commands acked", acked)
	}
	if r.c.Stats().Cachefills != 2 {
		t.Fatalf("cachefills = %d", r.c.Stats().Cachefills)
	}
}

func TestPowerFailFlushesDirtyMetadata(t *testing.T) {
	r := newRig(t, DefaultConfig())
	// Hand-author a metadata table: slot 2 dirty+valid -> NAND page 6.
	entries := make([]cp.MetaEntry, r.layout.NumSlots)
	entries[2] = cp.MetaEntry{NANDPage: 6, Dirty: true, Valid: true}
	entries[3] = cp.MetaEntry{NANDPage: 7, Dirty: false, Valid: true} // clean: skip
	meta := make([]byte, r.layout.MetaSize)
	if err := cp.EncodeMeta(meta, entries); err != nil {
		t.Fatal(err)
	}
	if err := r.ch.Device().CopyIn(r.layout.MetaOffset, meta); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x66}, PageSize)
	if err := r.ch.Device().CopyIn(r.layout.SlotAddr(2), want); err != nil {
		t.Fatal(err)
	}
	flushed := -1
	r.c.PowerFail(func(n int, err error) {
		if err != nil {
			t.Error(err)
		}
		flushed = n
	})
	r.k.RunWhile(func() bool { return flushed < 0 })
	if flushed != 1 {
		t.Fatalf("flushed %d pages, want 1 (only the dirty one)", flushed)
	}
	var got []byte
	r.f.ReadPage(6, func(d []byte, _ error) { got = d })
	r.k.RunWhile(func() bool { return got == nil })
	if !bytes.Equal(got, want) {
		t.Fatal("power-fail flush lost data")
	}
}

func TestPowerFailCorruptMetadata(t *testing.T) {
	r := newRig(t, DefaultConfig())
	// Garbage metadata must be detected, not replayed.
	junk := bytes.Repeat([]byte{0x42}, int(r.layout.MetaSize))
	if err := r.ch.Device().CopyIn(r.layout.MetaOffset, junk); err != nil {
		t.Fatal(err)
	}
	var gotErr error
	doneF := false
	r.c.PowerFail(func(_ int, err error) { gotErr = err; doneF = true })
	r.k.RunWhile(func() bool { return !doneF })
	if gotErr == nil {
		t.Fatal("corrupt metadata accepted on power fail")
	}
}

func TestErrorAckOnBadPage(t *testing.T) {
	r := newRig(t, DefaultConfig())
	// NAND page beyond the FTL's logical space -> error ack, not a hang.
	r.phase = !r.phase
	c := cp.Command{Phase: r.phase, Opcode: cp.OpCachefill, DRAMSlot: 1, NANDPage: 1 << 30}
	var word [16]byte
	binary.LittleEndian.PutUint64(word[0:8], c.Encode())
	r.mc.Write(r.layout.CPOffset, word[:], nil)
	var st cp.Status
	got := false
	var poll func()
	poll = func() {
		buf := make([]byte, 8)
		r.mc.Read(r.layout.CPOffset+cp.AckOffset, buf, func() {
			ack := cp.DecodeAck(binary.LittleEndian.Uint64(buf))
			if ack.Phase == r.phase && ack.Status != cp.StatusIdle {
				st, got = ack.Status, true
				return
			}
			r.k.Schedule(sim.Microsecond, poll)
		})
	}
	poll()
	deadline := r.k.Now().Add(10 * sim.Millisecond)
	for !got && r.k.Now() < deadline {
		r.k.Step()
	}
	if !got {
		t.Fatal("no ack for failing command")
	}
	if st != cp.StatusError {
		t.Fatalf("status = %v, want error", st)
	}
}

func Test8KBWindowMovesTwoPages(t *testing.T) {
	// With MaxBytesPerWindow=8192 and two command slots holding data-phase
	// work, one window can move both pages (§VII-C item 3).
	cfg := DefaultConfig()
	cfg.CommandDepth = 2
	cfg.MaxBytesPerWindow = 8192
	cfg.AckMergesWithData = true
	r := newRig(t, cfg)
	// Preload two NAND pages.
	for p := int64(0); p < 2; p++ {
		wrote := false
		r.f.WritePage(p, bytes.Repeat([]byte{byte(p + 1)}, PageSize), func(error) { wrote = true })
		r.k.RunWhile(func() bool { return !wrote })
	}
	// Issue two cachefills into both slots without waiting.
	for i := 0; i < 2; i++ {
		c := cp.Command{Phase: true, Opcode: cp.OpCachefill, DRAMSlot: uint32(20 + i), NANDPage: uint32(i)}
		var word [16]byte
		binary.LittleEndian.PutUint64(word[0:8], c.Encode())
		r.mc.Write(r.layout.CPOffset+int64(128*i), word[:], nil)
	}
	r.k.RunFor(2 * sim.Millisecond)
	st := r.c.Stats()
	if st.Cachefills != 2 {
		t.Fatalf("cachefills = %d, want 2", st.Cachefills)
	}
	// Both 4 KB transfers must respect the per-window byte budget.
	if st.BytesToDRAM > 8192*st.WindowsSeen {
		t.Fatalf("budget exceeded: %d bytes in %d windows", st.BytesToDRAM, st.WindowsSeen)
	}
	// And the data landed.
	for i := 0; i < 2; i++ {
		got := make([]byte, PageSize)
		if err := r.ch.Device().CopyOut(r.layout.SlotAddr(20+i), got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) {
			t.Fatalf("slot %d holds %#x", 20+i, got[0])
		}
	}
	if n := r.ch.CollisionCount(); n != 0 {
		t.Fatalf("collisions: %d", n)
	}
}
