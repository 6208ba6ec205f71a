package dram

import (
	"bytes"
	"testing"
	"testing/quick"

	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/sim"
)

func newDev() (*sim.Kernel, *Device) {
	k := sim.NewKernel()
	cfg := DefaultConfig(ddr4.DDR4_1600)
	cfg.Rows = 256 // keep tests small
	return k, New(k, cfg)
}

func at(k *sim.Kernel, d sim.Duration, fn func()) {
	k.Schedule(d, fn)
}

func TestActivateReadPrechargeLegal(t *testing.T) {
	k, d := newDev()
	tm := d.Config().Timing
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 2, Row: 7}) })
	at(k, tm.TRCD, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRead, Bank: 2, Col: 3}) })
	at(k, tm.TRAS+tm.TCK, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdPrecharge, Bank: 2}) })
	k.Run()
	if n := d.ViolationCount(); n != 0 {
		t.Fatalf("violations = %d: %v", n, d.Violations())
	}
	if r, _ := d.Stats(); r != 1 {
		t.Fatalf("reads = %d, want 1", r)
	}
}

func TestCASWithoutActivateViolates(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRead, Bank: 0, Col: 0}) })
	k.Run()
	if d.ViolationCount() != 1 {
		t.Fatalf("violations = %d, want 1", d.ViolationCount())
	}
}

func TestDoubleActivateViolates(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 1}) })
	at(k, 100*sim.Nanosecond, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 2}) })
	k.Run()
	if d.ViolationCount() != 1 {
		t.Fatalf("violations = %d, want 1", d.ViolationCount())
	}
	// Fig 2 case C2: the original row must still be the open one.
	if st, row := d.BankState(0); st != BankActive || row != 1 {
		t.Fatalf("bank state = %v row %d, want active row 1", st, row)
	}
}

func TestTRCDViolation(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 1}) })
	at(k, sim.Nanosecond, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRead, Bank: 0, Col: 0}) })
	k.Run()
	if d.ViolationCount() != 1 {
		t.Fatalf("violations = %d, want 1 (tRCD)", d.ViolationCount())
	}
}

func TestEarlyPrechargeViolatesTRAS(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 1}) })
	at(k, 2*sim.Nanosecond, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdPrecharge, Bank: 0}) })
	k.Run()
	if d.ViolationCount() != 1 {
		t.Fatalf("violations = %d, want 1 (tRAS)", d.ViolationCount())
	}
}

func TestRefreshBlocksAllCommands(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdPrechargeAll}) })
	at(k, 10*sim.Nanosecond, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRefresh}) })
	// 100 ns after REF: still inside the 350 ns internal refresh.
	at(k, 110*sim.Nanosecond, func() {
		if !d.InRefresh() {
			t.Error("expected InRefresh during standard tRFC")
		}
		d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 0})
	})
	k.Run()
	if d.ViolationCount() != 1 {
		t.Fatalf("violations = %d, want 1 (command during refresh)", d.ViolationCount())
	}
}

func TestExtraWindowAfterStandardTRFC(t *testing.T) {
	_, d := newDev()
	// Program an extended tRFC of 1250 ns like the PoC (§IV-A).
	cfg := d.Config()
	if cfg.Timing.TRFC != 350*sim.Nanosecond {
		t.Fatalf("default programmed tRFC = %v", cfg.Timing.TRFC)
	}
	k2 := sim.NewKernel()
	cfg.Timing.TRFC = 1250 * sim.Nanosecond
	d = New(k2, cfg)
	at(k2, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRefresh}) })
	at(k2, 100*sim.Nanosecond, func() {
		if d.InExtraWindow() {
			t.Error("extra window open during internal refresh")
		}
	})
	at(k2, 400*sim.Nanosecond, func() {
		if d.InRefresh() {
			t.Error("internal refresh should be done at 400ns")
		}
		if !d.InExtraWindow() {
			t.Error("extra window should be open at 400ns")
		}
	})
	at(k2, 1300*sim.Nanosecond, func() {
		if d.InExtraWindow() {
			t.Error("extra window should be closed at 1300ns")
		}
	})
	k2.Run()
}

func TestRefreshWithOpenBankViolates(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 5, Row: 1}) })
	at(k, 100*sim.Nanosecond, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRefresh}) })
	k.Run()
	if d.ViolationCount() != 1 {
		t.Fatalf("violations = %d, want 1 (REF with open bank)", d.ViolationCount())
	}
}

func TestPREAClosesAllBanks(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() {
		d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 1, Row: 1})
		d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 9, Row: 2})
	})
	at(k, 40*sim.Nanosecond, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdPrechargeAll}) })
	k.Run()
	for i := 0; i < d.Config().Banks; i++ {
		if st, _ := d.BankState(i); st != BankIdle {
			t.Fatalf("bank %d still open after PREA", i)
		}
	}
	if d.ViolationCount() != 0 {
		t.Fatalf("violations = %d: %v", d.ViolationCount(), d.Violations())
	}
}

func TestCopyRoundTrip(t *testing.T) {
	_, d := newDev()
	msg := []byte("nvdimm-c dram frontend")
	if err := d.CopyIn(12345, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := d.CopyOut(12345, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: got %q want %q", got, msg)
	}
}

func TestCopyCrossesPages(t *testing.T) {
	_, d := newDev()
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := int64(PageSize - 100) // straddles boundaries
	if err := d.CopyIn(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.CopyOut(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip mismatch")
	}
	if d.TouchedPages() < 3 {
		t.Fatalf("touched pages = %d, want >= 3", d.TouchedPages())
	}
}

func TestCopyOutOfRange(t *testing.T) {
	_, d := newDev()
	if err := d.CopyIn(d.Capacity()-10, make([]byte, 20)); err == nil {
		t.Error("write past capacity accepted")
	}
	if err := d.CopyOut(-1, make([]byte, 1)); err == nil {
		t.Error("negative read accepted")
	}
}

func TestUntouchedReadsZero(t *testing.T) {
	_, d := newDev()
	buf := make([]byte, 64)
	buf[0] = 0xFF
	if err := d.CopyOut(777777, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

// Property: any CopyIn/CopyOut sequence behaves like a flat byte array.
func TestCopyPropertyVsReference(t *testing.T) {
	type op struct {
		Addr uint32
		Data []byte
	}
	f := func(ops []op) bool {
		_, d := newDev()
		ref := make(map[int64]byte)
		capy := d.Capacity()
		for _, o := range ops {
			if len(o.Data) == 0 || len(o.Data) > 512 {
				continue
			}
			addr := int64(o.Addr) % (capy - int64(len(o.Data)))
			if addr < 0 {
				addr = 0
			}
			if err := d.CopyIn(addr, o.Data); err != nil {
				return false
			}
			for i, b := range o.Data {
				ref[addr+int64(i)] = b
			}
		}
		for a, want := range ref {
			var got [1]byte
			if err := d.CopyOut(a, got[:]); err != nil || got[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshCounter(t *testing.T) {
	k, d := newDev()
	for i := 0; i < 5; i++ {
		at(k, sim.Duration(i)*10*sim.Microsecond, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRefresh}) })
	}
	k.Run()
	if d.RefreshCount() != 5 {
		t.Fatalf("refresh count = %d, want 5", d.RefreshCount())
	}
}

func TestPoisonOnViolation(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(ddr4.DDR4_1600)
	cfg.Rows = 64
	cfg.PoisonOnViolation = true
	d := New(k, cfg)
	// Write valid data at the burst that bank0/row0/col0 maps to.
	if err := d.CopyIn(0, bytes.Repeat([]byte{0xAB}, 64)); err != nil {
		t.Fatal(err)
	}
	// CAS to a precharged bank: violation, poisons target burst.
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdWrite, Bank: 0, Col: 0}) })
	k.Run()
	got := make([]byte, 64)
	if err := d.CopyOut(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xDE {
		t.Fatalf("expected poisoned data, got %#x", got[0])
	}
}

// Property: the device's legality verdicts match a simple reference model
// over random command sequences (commands spaced far enough apart that only
// structural rules — not fine timing — apply).
func TestProtocolVsReferenceProperty(t *testing.T) {
	type step struct {
		Kind byte
		Bank uint8
		Row  uint16
	}
	f := func(steps []step) bool {
		k := sim.NewKernel()
		cfg := DefaultConfig(ddr4.DDR4_1600)
		cfg.Rows = 128
		d := New(k, cfg)
		// Reference state: open row per bank, -1 closed; refresh in flight.
		open := make([]int, cfg.Banks)
		for i := range open {
			open[i] = -1
		}
		wantViolations := uint64(0)
		now := sim.Duration(0)
		for _, st := range steps {
			now += 10 * sim.Microsecond // beyond all fine timings and tRFC
			bank := int(st.Bank) % cfg.Banks
			row := int(st.Row) % cfg.Rows
			var cmd ddr4.Command
			switch st.Kind % 4 {
			case 0: // ACT
				cmd = ddr4.Command{Kind: ddr4.CmdActivate, Bank: bank, Row: row}
				if open[bank] >= 0 {
					wantViolations++
				} else {
					open[bank] = row
				}
			case 1: // RD
				cmd = ddr4.Command{Kind: ddr4.CmdRead, Bank: bank, Col: 0}
				if open[bank] < 0 {
					wantViolations++
				}
			case 2: // PRE
				cmd = ddr4.Command{Kind: ddr4.CmdPrecharge, Bank: bank}
				open[bank] = -1
			case 3: // REF (requires all banks closed)
				cmd = ddr4.Command{Kind: ddr4.CmdRefresh}
				for i := range open {
					if open[i] >= 0 {
						wantViolations++
						open[i] = -1
					}
				}
			}
			c := cmd
			k.Schedule(now, func() { d.Apply(c) })
		}
		k.Run()
		return d.ViolationCount() == wantViolations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllZero(t *testing.T) {
	// Every length around the 8-byte stride, with the one nonzero byte at
	// every position: in the word loop and in the tail.
	for n := 0; n <= 25; n++ {
		p := make([]byte, n)
		if !AllZero(p) {
			t.Fatalf("len %d: zero slice reported nonzero", n)
		}
		for i := range p {
			p[i] = 0x80
			if AllZero(p) {
				t.Fatalf("len %d: nonzero byte at %d missed", n, i)
			}
			p[i] = 0
		}
	}
}

// TestAllZeroMatchesByteLoop checks AllZero against a byte loop for every
// length 0..2*PageSize+1, with one nonzero byte at every position: inside
// the first page, across the page boundary and in the tail. For a fixed
// position the byte loop runs incrementally over the lengths. A length that
// ends at or before the nonzero byte is the all-zero slice of that length,
// checked once up front. -short checks the 64 lengths past each position.
func TestAllZeroMatchesByteLoop(t *testing.T) {
	const max = 2*PageSize + 1
	buf := make([]byte, max)
	check := func(pos int) {
		zero := true // byte-loop verdict for buf[:n]
		for n := 0; n <= max; n++ {
			if n > 0 && buf[n-1] != 0 {
				zero = false
			}
			if n <= pos {
				continue
			}
			if testing.Short() && n > pos+64 {
				return
			}
			if got := AllZero(buf[:n]); got != zero {
				t.Fatalf("len %d, nonzero byte at %d: AllZero = %v, byte loop = %v", n, pos, got, zero)
			}
		}
	}
	check(-1) // all zeros, every length
	for pos := 0; pos < max; pos++ {
		buf[pos] = byte(pos%255 + 1)
		check(pos)
		buf[pos] = 0
	}
}

func TestZeroWriteToUntouchedPageStoresNothing(t *testing.T) {
	_, d := newDev()
	// A whole page, a partial chunk and a three-page write straddling
	// page boundaries, all zeros.
	for _, w := range []struct{ addr, n int64 }{
		{0, PageSize}, {5*PageSize + 100, 200}, {8*PageSize - 100, 3 * PageSize},
	} {
		if err := d.CopyIn(w.addr, make([]byte, w.n)); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.TouchedPages(); n != 0 {
		t.Fatalf("zero writes materialised %d pages", n)
	}
	buf := bytes.Repeat([]byte{0xFF}, 3*PageSize)
	if err := d.CopyOut(8*PageSize-100, buf); err != nil {
		t.Fatal(err)
	}
	if !AllZero(buf) {
		t.Fatal("untouched range did not read back as zeros")
	}
	if _, w := d.Stats(); w == 0 {
		t.Fatal("zero writes not counted as bus writes")
	}
}

func TestZeroWriteOverwritesTouchedPage(t *testing.T) {
	_, d := newDev()
	if err := d.CopyIn(PageSize, bytes.Repeat([]byte{0xAB}, PageSize)); err != nil {
		t.Fatal(err)
	}
	// A partial zero write, then a whole-page one.
	if err := d.CopyIn(PageSize+10, make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.CopyOut(PageSize, got); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB}, PageSize)
	clear(want[10:30])
	if !bytes.Equal(got, want) {
		t.Fatal("partial zero write over a touched page lost or kept the wrong bytes")
	}
	if err := d.CopyIn(PageSize, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := d.CopyOut(PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !AllZero(got) {
		t.Fatal("zero write did not overwrite a touched page")
	}
	if n := d.TouchedPages(); n != 1 {
		t.Fatalf("touched pages = %d, want 1", n)
	}
}

// Property: over a small window, partial and page-straddling writes that
// mix zero and nonzero chunks behave like a flat byte array, and a page is
// materialised exactly when a nonzero byte has landed in it.
func TestSparseStoreVsReference(t *testing.T) {
	const window = 4 * PageSize
	type op struct {
		Addr  uint16
		Len   uint16
		Fill  byte
		Zeros bool
	}
	f := func(ops []op) bool {
		_, d := newDev()
		ref := make([]byte, window)
		var held [window / PageSize]bool
		for _, o := range ops {
			n := int(o.Len)%(2*PageSize) + 1
			addr := int(o.Addr) % (window - n)
			data := make([]byte, n)
			if !o.Zeros {
				for i := range data {
					// Runs of zeros between nonzero bytes, so single
					// chunks can be all-zero inside a nonzero write.
					if (i/1500)%2 == 0 {
						data[i] = o.Fill | 1
					}
				}
			}
			if err := d.CopyIn(int64(addr), data); err != nil {
				return false
			}
			copy(ref[addr:], data)
			for i, b := range data {
				if b != 0 {
					held[(addr+i)/PageSize] = true
				}
			}
		}
		got := make([]byte, window)
		if err := d.CopyOut(0, got); err != nil || !bytes.Equal(got, ref) {
			return false
		}
		want := 0
		for _, h := range held {
			if h {
				want++
			}
		}
		return d.TouchedPages() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUntouchedCopiesAllocateNothing(t *testing.T) {
	_, d := newDev()
	buf := make([]byte, 3*PageSize)
	addr := int64(40*PageSize - 100)
	if n := testing.AllocsPerRun(100, func() {
		if err := d.CopyOut(addr, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CopyOut of an untouched range: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := d.CopyIn(addr, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("zero CopyIn to an untouched range: %v allocs, want 0", n)
	}
	if d.TouchedPages() != 0 {
		t.Fatal("untouched range materialised")
	}
}
