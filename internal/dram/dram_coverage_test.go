package dram

import (
	"strings"
	"testing"

	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/sim"
)

func TestViolationString(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRead, Bank: 0, Col: 0}) })
	k.Run()
	vs := d.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations: %v", vs)
	}
	s := vs[0].String()
	if !strings.Contains(s, "precharged") {
		t.Fatalf("violation string %q missing description", s)
	}
}

func TestSelfRefreshLifecycle(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdSelfRefreshEntry}) })
	at(k, 1*sim.Microsecond, func() {
		if !d.InSelfRefresh() {
			t.Error("not in self-refresh after SRE")
		}
		// NOP/deselect are the only legal commands besides SRX.
		d.Apply(ddr4.Command{Kind: ddr4.CmdNOP})
		d.Apply(ddr4.Command{Kind: ddr4.CmdDeselect})
		if d.ViolationCount() != 0 {
			t.Errorf("NOP/DES during self-refresh flagged: %v", d.Violations())
		}
		d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 0})
		if d.ViolationCount() != 1 {
			t.Errorf("ACT during self-refresh not flagged")
		}
	})
	at(k, 2*sim.Microsecond, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdSelfRefreshExit}) })
	at(k, 3*sim.Microsecond, func() {
		if d.InSelfRefresh() {
			t.Error("still in self-refresh after SRX")
		}
		// SRX with the device awake is itself illegal.
		d.Apply(ddr4.Command{Kind: ddr4.CmdSelfRefreshExit})
		if d.ViolationCount() != 2 {
			t.Errorf("stray SRX not flagged: %v", d.Violations())
		}
	})
	k.Run()
}

func TestSREWithOpenBankViolates(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 3, Row: 9}) })
	at(k, 100*sim.Nanosecond, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdSelfRefreshEntry}) })
	k.Run()
	if d.ViolationCount() != 1 {
		t.Fatalf("violations = %d, want 1: %v", d.ViolationCount(), d.Violations())
	}
	if st, _ := d.BankState(3); st != BankIdle {
		t.Fatal("SRE did not force the open bank idle")
	}
}

// TestLastRefreshStart: the refresh and extra windows follow the latest
// REF's start instant, not the first one's.
func TestLastRefreshStart(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(ddr4.DDR4_1600)
	cfg.Rows = 256
	cfg.Timing.TRFC = 1250 * sim.Nanosecond
	d := New(k, cfg)
	refAt := 5 * sim.Microsecond
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRefresh}) })
	at(k, refAt, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRefresh}) })
	for _, c := range []struct {
		off            sim.Duration
		refresh, extra bool
	}{
		{-100 * sim.Nanosecond, false, false},
		{100 * sim.Nanosecond, true, false},
		{cfg.StandardTRFC + 50*sim.Nanosecond, false, true},
		{cfg.Timing.TRFC + 50*sim.Nanosecond, false, false},
	} {
		c := c
		at(k, refAt+c.off, func() {
			if d.InRefresh() != c.refresh || d.InExtraWindow() != c.extra {
				t.Errorf("REF+%v: in refresh %v, in extra window %v; want %v, %v",
					c.off, d.InRefresh(), d.InExtraWindow(), c.refresh, c.extra)
			}
		})
	}
	k.Run()
}

func TestAddrToBRCRoundTrip(t *testing.T) {
	_, d := newDev()
	for _, addr := range []int64{0, ddr4.BurstBytes, d.Capacity() / 2, d.Capacity() - ddr4.BurstBytes} {
		bank, row, col := d.AddrToBRC(addr)
		if bank < 0 || bank >= d.Config().Banks || row < 0 || row >= d.Config().Rows || col < 0 || col >= d.Config().BurstsPerRow {
			t.Fatalf("AddrToBRC(%d) = %d/%d/%d out of geometry", addr, bank, row, col)
		}
		if back := d.burstAddr(bank, row, col); back != addr {
			t.Fatalf("round trip %d -> (%d,%d,%d) -> %d", addr, bank, row, col, back)
		}
	}
}

func TestBankOutOfRangeViolates(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() {
		d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: -1, Row: 0})
		d.Apply(ddr4.Command{Kind: ddr4.CmdRead, Bank: d.Config().Banks, Col: 0})
		d.Apply(ddr4.Command{Kind: ddr4.CmdPrecharge, Bank: 99})
	})
	k.Run()
	if d.ViolationCount() != 3 {
		t.Fatalf("violations = %d, want 3: %v", d.ViolationCount(), d.Violations())
	}
}

func TestRowColumnRangeViolations(t *testing.T) {
	k, d := newDev()
	tm := d.Config().Timing
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: d.Config().Rows}) })
	at(k, tm.TCK, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 1}) })
	at(k, tm.TCK+tm.TRCD, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRead, Bank: 0, Col: d.Config().BurstsPerRow}) })
	k.Run()
	if d.ViolationCount() != 2 {
		t.Fatalf("violations = %d, want 2 (row + column range): %v", d.ViolationCount(), d.Violations())
	}
}

func TestTRPViolation(t *testing.T) {
	k, d := newDev()
	tm := d.Config().Timing
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 1}) })
	at(k, tm.TRAS+tm.TCK, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdPrecharge, Bank: 0}) })
	// Re-activate immediately: tRP cannot have elapsed.
	at(k, tm.TRAS+2*tm.TCK, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 2}) })
	k.Run()
	if d.ViolationCount() != 1 || !strings.Contains(d.Violations()[0].Desc, "tRP") {
		t.Fatalf("violations: %v", d.Violations())
	}
}

func TestAutoPrechargeClosesBank(t *testing.T) {
	k, d := newDev()
	tm := d.Config().Timing
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 1, Row: 4}) })
	at(k, tm.TRCD, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdWrite, Bank: 1, Col: 2, AutoPrecharge: true}) })
	k.Run()
	if st, _ := d.BankState(1); st != BankIdle {
		t.Fatal("WRA left the bank open")
	}
	if _, w := d.Stats(); w != 1 {
		t.Fatalf("writes = %d, want 1", w)
	}
	if d.ViolationCount() != 0 {
		t.Fatalf("violations: %v", d.Violations())
	}
}

func TestPREAEarlyTRASViolates(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 2, Row: 1}) })
	at(k, 1*sim.Nanosecond, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdPrechargeAll}) })
	k.Run()
	if d.ViolationCount() != 1 || !strings.Contains(d.Violations()[0].Desc, "tRAS") {
		t.Fatalf("violations: %v", d.Violations())
	}
	if st, _ := d.BankState(2); st != BankIdle {
		t.Fatal("PREA did not close the bank")
	}
}

func TestZQCalAndMRSAccepted(t *testing.T) {
	k, d := newDev()
	at(k, 0, func() {
		d.Apply(ddr4.Command{Kind: ddr4.CmdZQCal})
		d.Apply(ddr4.Command{Kind: ddr4.CmdMRS})
	})
	k.Run()
	if d.ViolationCount() != 0 {
		t.Fatalf("housekeeping commands flagged: %v", d.Violations())
	}
}

// TestRefreshBusyClearsAfterTRFC covers the lazy refreshBusy reset: the
// first command after the programmed tRFC expires clears the refresh state,
// so the extra window is provably closed.
func TestRefreshBusyClearsAfterTRFC(t *testing.T) {
	k, d := newDev()
	trfc := d.Config().Timing.TRFC
	at(k, 0, func() { d.Apply(ddr4.Command{Kind: ddr4.CmdRefresh}) })
	at(k, sim.Duration(trfc)+sim.Nanosecond, func() {
		if d.InExtraWindow() {
			t.Error("extra window still open past programmed tRFC")
		}
		d.Apply(ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 0})
	})
	k.Run()
	if d.ViolationCount() != 0 {
		t.Fatalf("post-tRFC ACT flagged: %v", d.Violations())
	}
}

func TestViolationRecordCap(t *testing.T) {
	k, d := newDev()
	d.ViolationLimit = 2
	at(k, 0, func() {
		for i := 0; i < 5; i++ {
			d.Apply(ddr4.Command{Kind: ddr4.CmdRead, Bank: 0, Col: 0})
		}
	})
	k.Run()
	if len(d.Violations()) != 2 || d.ViolationCount() != 5 {
		t.Fatalf("recorded %d / counted %d, want 2 / 5", len(d.Violations()), d.ViolationCount())
	}
}
