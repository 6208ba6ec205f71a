package bus

import (
	"strings"
	"testing"

	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
)

func TestMasterString(t *testing.T) {
	if HostIMC.String() != "iMC" || NVMC.String() != "NVMC" {
		t.Fatalf("master names: %v %v", HostIMC, NVMC)
	}
}

func TestTimingAccessor(t *testing.T) {
	_, ch := newChannel()
	if got, want := ch.Timing().TCK, ddr4.NewTiming(ddr4.DDR4_1600).TCK; got != want {
		t.Fatalf("Timing().TCK = %v, want %v", got, want)
	}
}

func TestSnoopDropFault(t *testing.T) {
	_, ch := newChannel()
	var seen int
	ch.AttachSnoop(func(sim.Time, ddr4.CAState) { seen++ })

	g := fault.NewRegistry(1)
	g.Always(fault.BusSnoopDrop)
	ch.SetFaults(g)
	ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdRefresh})
	if seen != 0 {
		t.Fatalf("snoop saw %d commands through an always-drop fault", seen)
	}
	if ch.SnoopDrops() != 1 {
		t.Fatalf("SnoopDrops = %d, want 1", ch.SnoopDrops())
	}

	// Detaching the registry restores the taps.
	ch.SetFaults(nil)
	ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdRefresh})
	if seen != 1 || ch.SnoopDrops() != 1 {
		t.Fatalf("after detach: seen=%d drops=%d, want 1/1", seen, ch.SnoopDrops())
	}
}

// TestTwoMastersWithinOneTCK covers the sub-cycle variant of Fig. 2a case
// C1: the second master drives CA a fraction of a clock after the first, so
// the electrical conflict is still within one tCK.
func TestTwoMastersWithinOneTCK(t *testing.T) {
	k, ch := newChannel()
	sub := ch.Timing().TCK / 2
	if sub <= 0 {
		t.Fatalf("tCK %v too small to split", ch.Timing().TCK)
	}
	k.Schedule(0, func() { ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 1}) })
	k.Schedule(sub, func() { ch.Issue(NVMC, ddr4.Command{Kind: ddr4.CmdActivate, Bank: 1, Row: 2}) })
	k.Run()
	found := false
	for _, c := range ch.Collisions() {
		if strings.Contains(c.Desc, "within one tCK") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no within-one-tCK collision recorded: %v", ch.Collisions())
	}
}

// TestNVMCTransferOverlapsHostHold covers Fig. 2b case C3: an NVMC data
// transfer outside the window while the host data bus is mid-burst records
// both the window violation and the overlap.
func TestNVMCTransferOverlapsHostHold(t *testing.T) {
	k, ch := newChannel()
	ch.HostWrite(0, make([]byte, 4096), 1, nil)
	// Halfway through the host burst, the NVMC (with no refresh in
	// progress, hence no window) touches the data bus.
	k.Schedule(ch.HostTransferTime(4096, 1)/2, func() {
		buf := make([]byte, 64)
		if err := ch.NVMCAccess(0, buf, true); err != nil {
			t.Errorf("NVMCAccess: %v", err)
		}
	})
	k.Run()
	if n := ch.CollisionCount(); n != 2 {
		t.Fatalf("collisions = %d, want 2 (window + host-burst overlap): %v", n, ch.Collisions())
	}
	var overlap bool
	for _, c := range ch.Collisions() {
		if strings.Contains(c.Desc, "host burst") {
			overlap = true
		}
	}
	if !overlap {
		t.Fatalf("host-burst overlap not described: %v", ch.Collisions())
	}
}

type collisionSink struct{ events []trace.Event }

func (s *collisionSink) Record(e trace.Event) {
	if e.Kind == trace.KindCollision {
		s.events = append(s.events, e)
	}
}

// TestCollideEmitsTraceEvent checks that collisions are published on the
// trace stream (this is what the conformance auditor consumes).
func TestCollideEmitsTraceEvent(t *testing.T) {
	k, ch := newChannel()
	sink := &collisionSink{}
	rec := &trace.Recorder{}
	rec.Attach(sink)
	ch.Trace = rec
	ch.Issue(NVMC, ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 0})
	k.Run()
	if len(sink.events) == 0 {
		t.Fatal("collision produced no trace event")
	}
	e := sink.events[0]
	if e.Master != int(NVMC) || !strings.Contains(e.Describe(), "window") {
		t.Fatalf("collision event %+v", e)
	}
}

// TestCollisionRecordCap checks that the recorded slice is bounded while
// the counter keeps the true total.
func TestCollisionRecordCap(t *testing.T) {
	k, ch := newChannel()
	ch.collisionLimit = 3
	for i := 0; i < 8; i++ {
		ch.Issue(NVMC, ddr4.Command{Kind: ddr4.CmdActivate, Bank: 0, Row: 0})
		k.RunFor(ch.Timing().TCK * 2)
	}
	if got := len(ch.Collisions()); got != 3 {
		t.Fatalf("recorded %d collisions, want cap 3", got)
	}
	if ch.CollisionCount() < 8 {
		t.Fatalf("CollisionCount = %d, want >= 8", ch.CollisionCount())
	}
}

func TestStatsCounters(t *testing.T) {
	k, ch := newChannel()
	ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdPrechargeAll})
	ch.Issue(HostIMC, ddr4.Command{Kind: ddr4.CmdRefresh})
	k.Schedule(500*sim.Nanosecond, func() {
		if err := ch.NVMCAccess(0, make([]byte, 64), false); err != nil {
			t.Errorf("in-window NVMCAccess: %v", err)
		}
	})
	ch.HostWrite(4096, make([]byte, 128), 0, nil)
	k.Run()
	hostCmds, nvmcCmds, hostBytes, nvmcBytes := ch.Stats()
	if hostCmds != 2 || nvmcCmds != 0 || hostBytes != 128 || nvmcBytes != 64 {
		t.Fatalf("Stats = %d/%d/%d/%d, want 2/0/128/64", hostCmds, nvmcCmds, hostBytes, nvmcBytes)
	}
}
