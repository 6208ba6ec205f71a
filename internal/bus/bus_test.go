package bus

import (
	"bytes"
	"testing"

	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/dram"
	"nvdimmc/internal/sim"
)

func newChannel() (*sim.Kernel, *Channel) {
	k := sim.NewKernel()
	cfg := dram.DefaultConfig(ddr4.DDR4_1600)
	cfg.Rows = 1024
	cfg.Timing.TRFC = 1250 * sim.Nanosecond
	dev := dram.New(k, cfg)
	return k, New(k, dev)
}

func TestSnoopSeesEveryCommand(t *testing.T) {
	k, ch := newChannel()
	var seen []ddr4.CommandKind
	ch.AttachSnoop(func(_ sim.Time, s ddr4.CAState) {
		seen = append(seen, ddr4.Decode(s))
	})
	ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdPrechargeAll})
	ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdRefresh})
	k.Run()
	if len(seen) != 2 || seen[0] != ddr4.CmdPrecharge || seen[1] != ddr4.CmdRefresh {
		t.Fatalf("snooped %v", seen)
	}
}

func TestSameCycleTwoMastersCollide(t *testing.T) {
	k, ch := newChannel()
	// Fig. 2a C1: both masters drive CA in the same clock.
	ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 1})
	ch.Issue(NVMC, ddr4.Command{Kind: ddr4.CmdActivate, Bank: 1, Row: 2})
	k.Run()
	if ch.CollisionCount() == 0 {
		t.Fatal("simultaneous commands from both masters not flagged")
	}
}

func TestNVMCCommandOutsideWindowCollides(t *testing.T) {
	k, ch := newChannel()
	// No refresh in progress: any NVMC command is unsafe.
	ch.Issue(NVMC, ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 0})
	k.Run()
	if ch.CollisionCount() == 0 {
		t.Fatal("NVMC command outside window not flagged")
	}
}

func TestNVMCCommandInsideWindowSafe(t *testing.T) {
	k, ch := newChannel()
	ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdPrechargeAll})
	ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdRefresh})
	// 350 ns (standard tRFC) after REF the device is internally done; the
	// extra window runs to 1250 ns.
	k.Schedule(500*sim.Nanosecond, func() {
		ch.Issue(NVMC, ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 0})
	})
	k.Run()
	if n := ch.CollisionCount(); n != 0 {
		t.Fatalf("collisions = %d: %v", n, ch.Collisions())
	}
}

func TestNVMCDataAccessWindowRules(t *testing.T) {
	k, ch := newChannel()
	buf := make([]byte, 4096)
	// Outside any window: collision.
	if err := ch.NVMCAccess(0, buf, true); err != nil {
		t.Fatal(err)
	}
	if ch.CollisionCount() == 0 {
		t.Fatal("out-of-window NVMC access not flagged")
	}
	before := ch.CollisionCount()
	ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdPrechargeAll})
	ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdRefresh})
	k.Schedule(600*sim.Nanosecond, func() {
		if err := ch.NVMCAccess(0, buf, false); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if ch.CollisionCount() != before {
		t.Fatalf("in-window NVMC access flagged: %v", ch.Collisions())
	}
}

func TestHostReadWriteMoveData(t *testing.T) {
	k, ch := newChannel()
	want := bytes.Repeat([]byte{0xA5, 0x42}, 2048)
	done := false
	ch.HostWrite(8192, want, 1, func() {
		got := make([]byte, len(want))
		ch.HostRead(8192, got, 1, func() {
			if !bytes.Equal(got, want) {
				t.Error("host read/write mismatch")
			}
			done = true
		})
	})
	k.Run()
	if !done {
		t.Fatal("transfers did not complete")
	}
	hc, _, hb, _ := ch.Stats()
	if hc != 0 || hb != 8192 {
		t.Fatalf("stats: cmds=%d bytes=%d", hc, hb)
	}
}

// TestHostWriteReadsDataAtGrant pins the ownership contract: HostWrite keeps
// data, not a copy, and moves it into the DRAM at the grant instant, so the
// bytes that land are the ones data holds then. (The iMC, the one caller,
// hands over its WPQ buffer and leaves it alone until done.)
func TestHostWriteReadsDataAtGrant(t *testing.T) {
	k, ch := newChannel()
	ch.HostRead(0, make([]byte, 64), 1, nil) // occupies the bus
	buf := []byte{1, 2, 3, 4}
	ch.HostWrite(0, buf, 1, nil)
	buf[0] = 99 // before the grant
	k.Run()
	got := make([]byte, 4)
	if err := ch.Device().CopyOut(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 99 {
		t.Fatalf("DRAM holds %v, want the buffer's bytes at the grant", got)
	}
}

func TestDataBusSerializesTransfers(t *testing.T) {
	k, ch := newChannel()
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		ch.HostRead(0, make([]byte, 4096), 1, func() { ends = append(ends, k.Now()) })
	}
	k.Run()
	if len(ends) != 3 {
		t.Fatalf("completed %d, want 3", len(ends))
	}
	per := ch.HostTransferTime(4096, 1)
	for i, e := range ends {
		want := sim.Time(0).Add(sim.Duration(i+1) * per)
		if e != want {
			t.Errorf("transfer %d ended %v, want %v", i, e, want)
		}
	}
}
