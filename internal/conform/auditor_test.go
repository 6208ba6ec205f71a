package conform

import (
	"strings"
	"testing"

	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
)

// testParams is a compact timing contract: 1 ns clock, 7.8 us tREFI,
// 1.25 us tRFC over a 350 ns internal refresh with a 50 ns guard.
func testParams() Params {
	return Params{
		TCK:               1 * sim.Nanosecond,
		TREFI:             7800 * sim.Nanosecond,
		TRFC:              1250 * sim.Nanosecond,
		StandardTRFC:      350 * sim.Nanosecond,
		WindowGuard:       50 * sim.Nanosecond,
		MaxBytesPerWindow: 8192,
		Banks:             4,
	}
}

func cmd(at sim.Time, m int, k ddr4.CommandKind) trace.Event {
	kind := trace.KindCommand
	if k == ddr4.CmdRefresh {
		kind = trace.KindRefresh
	}
	return trace.Event{At: at, Kind: kind, Master: m, Cmd: ddr4.Command{Kind: k}}
}

// refCycle is one legal refresh sequence at ref time t: hold, PREA+REF
// back-to-back at the grant instant, detection 5 clocks later, window with
// the exact programmed geometry.
func refCycle(p Params, t sim.Time) []trace.Event {
	return []trace.Event{
		{At: t, Kind: trace.KindRefreshHold, End: t.Add(p.TRFC)},
		cmd(t, trace.MasterHost, ddr4.CmdPrechargeAll),
		cmd(t, trace.MasterHost, ddr4.CmdRefresh),
		{At: t.Add(5 * sim.Nanosecond), Kind: trace.KindRefDetect, RefAt: t},
		{At: t.Add(p.StandardTRFC), Kind: trace.KindWindow,
			End: t.Add(p.TRFC).Add(-p.WindowGuard), RefAt: t},
	}
}

func inWin(p Params, t sim.Time) sim.Time { return t.Add(p.StandardTRFC + 100*sim.Nanosecond) }

func TestAuditorRules(t *testing.T) {
	p := testParams()
	t0 := sim.Time(0).Add(1000 * sim.Nanosecond)
	for _, tc := range []struct {
		name   string
		rule   string // "" = must be clean
		events func() []trace.Event
	}{
		{"clean-cycle", "", func() []trace.Event {
			evs := refCycle(p, t0)
			evs = append(evs,
				trace.Event{At: inWin(p, t0), Kind: trace.KindNVMCData, Read: true, Addr: 0x1000, Bytes: 4096},
				trace.Event{At: inWin(p, t0), Kind: trace.KindCPCommand, Slot: 0, Word: 1},
				trace.Event{At: inWin(p, t0).Add(10 * sim.Nanosecond), Kind: trace.KindCPAck, Slot: 0, Word: 1},
				// Host burst after the hold ends is fine.
				trace.Event{At: t0.Add(p.TRFC), Kind: trace.KindHostData, Addr: 0, Bytes: 64,
					End: t0.Add(p.TRFC + 10*sim.Nanosecond)},
			)
			return evs
		}},
		{"non-monotonic-time", "time", func() []trace.Event {
			return []trace.Event{
				cmd(t0, trace.MasterHost, ddr4.CmdNOP),
				cmd(t0.Add(-sim.Nanosecond), trace.MasterHost, ddr4.CmdNOP),
			}
		}},
		{"ref-without-prea", "prea-ref", func() []trace.Event {
			return []trace.Event{
				{At: t0, Kind: trace.KindRefreshHold, End: t0.Add(p.TRFC)},
				cmd(t0, trace.MasterHost, ddr4.CmdRefresh),
			}
		}},
		{"prea-not-back-to-back", "prea-ref", func() []trace.Event {
			return []trace.Event{
				{At: t0, Kind: trace.KindRefreshHold, End: t0.Add(p.TRFC)},
				cmd(t0.Add(-20*sim.Nanosecond), trace.MasterHost, ddr4.CmdPrechargeAll),
				cmd(t0, trace.MasterHost, ddr4.CmdRefresh),
			}
		}},
		{"ref-outside-hold", "prea-ref", func() []trace.Event {
			return []trace.Event{
				cmd(t0, trace.MasterHost, ddr4.CmdPrechargeAll),
				cmd(t0, trace.MasterHost, ddr4.CmdRefresh),
			}
		}},
		{"trefi-budget-blown", "trefi", func() []trace.Event {
			evs := refCycle(p, t0)
			// Next REF 10*tREFI later: one past the 8-postponement budget.
			return append(evs, refCycle(p, t0.Add(10*p.TREFI))...)
		}},
		{"trefi-suspended-in-self-refresh", "", func() []trace.Event {
			evs := refCycle(p, t0)
			evs = append(evs, cmd(t0.Add(p.TRFC), trace.MasterHost, ddr4.CmdSelfRefreshEntry))
			wake := t0.Add(20 * p.TREFI) // far past the budget: legal, DIMM self-refreshes
			evs = append(evs, cmd(wake, trace.MasterHost, ddr4.CmdSelfRefreshExit))
			return append(evs, refCycle(p, wake.Add(p.TREFI))...)
		}},
		{"nvmc-cmd-outside-window", "exclusivity", func() []trace.Event {
			return []trace.Event{cmd(t0, trace.MasterNVMC, ddr4.CmdActivate)}
		}},
		{"nvmc-data-outside-window", "exclusivity", func() []trace.Event {
			return []trace.Event{{At: t0, Kind: trace.KindNVMCData, Addr: 0x40, Bytes: 4096}}
		}},
		{"host-cmd-inside-hold", "exclusivity", func() []trace.Event {
			return []trace.Event{
				{At: t0, Kind: trace.KindRefreshHold, End: t0.Add(p.TRFC)},
				cmd(t0.Add(10*sim.Nanosecond), trace.MasterHost, ddr4.CmdActivate),
			}
		}},
		{"host-burst-inside-window", "exclusivity", func() []trace.Event {
			evs := refCycle(p, t0)
			return append(evs, trace.Event{At: inWin(p, t0), Kind: trace.KindHostData,
				Addr: 0, Bytes: 64, End: inWin(p, t0).Add(10 * sim.Nanosecond)})
		}},
		{"host-burst-overlaps-hold-start", "exclusivity", func() []trace.Event {
			return []trace.Event{
				{At: t0, Kind: trace.KindHostData, Addr: 0, Bytes: 64, End: t0.Add(100 * sim.Nanosecond)},
				{At: t0.Add(50 * sim.Nanosecond), Kind: trace.KindRefreshHold,
					End: t0.Add(50 * sim.Nanosecond).Add(p.TRFC)},
			}
		}},
		{"window-wrong-open", "window", func() []trace.Event {
			evs := refCycle(p, t0)[:4] // hold, PREA, REF, detect
			return append(evs, trace.Event{At: t0.Add(p.StandardTRFC - 10*sim.Nanosecond),
				Kind: trace.KindWindow, End: t0.Add(p.TRFC).Add(-p.WindowGuard), RefAt: t0})
		}},
		{"window-wrong-close", "window", func() []trace.Event {
			evs := refCycle(p, t0)[:4]
			return append(evs, trace.Event{At: t0.Add(p.StandardTRFC),
				Kind: trace.KindWindow, End: t0.Add(p.TRFC), RefAt: t0}) // forgot the guard
		}},
		{"window-for-stale-ref", "window", func() []trace.Event {
			evs := refCycle(p, t0)[:4]
			stale := t0.Add(-p.TREFI)
			return append(evs, trace.Event{At: stale.Add(p.StandardTRFC),
				Kind: trace.KindWindow, End: stale.Add(p.TRFC).Add(-p.WindowGuard), RefAt: stale})
		}},
		{"window-byte-budget", "window", func() []trace.Event {
			evs := refCycle(p, t0)
			at := inWin(p, t0)
			return append(evs,
				trace.Event{At: at, Kind: trace.KindNVMCData, Addr: 0, Bytes: 8192},
				trace.Event{At: at.Add(sim.Nanosecond), Kind: trace.KindNVMCData, Addr: 0x2000, Bytes: 4096},
			)
		}},
		{"cp-duplicated-ack", "cp", func() []trace.Event {
			evs := refCycle(p, t0)
			at := inWin(p, t0)
			return append(evs,
				trace.Event{At: at, Kind: trace.KindCPCommand, Slot: 2, Word: 1},
				trace.Event{At: at.Add(sim.Nanosecond), Kind: trace.KindCPAck, Slot: 2, Word: 1},
				trace.Event{At: at.Add(2 * sim.Nanosecond), Kind: trace.KindCPAck, Slot: 2, Word: 1},
			)
		}},
		{"cp-lost-ack", "cp", func() []trace.Event {
			evs := refCycle(p, t0)
			at := inWin(p, t0)
			return append(evs,
				trace.Event{At: at, Kind: trace.KindCPCommand, Slot: 2, Word: 1},
				trace.Event{At: at.Add(sim.Nanosecond), Kind: trace.KindCPCommand, Slot: 2, Word: 0},
			)
		}},
		{"cp-phase-mismatch", "cp", func() []trace.Event {
			evs := refCycle(p, t0)
			at := inWin(p, t0)
			return append(evs,
				trace.Event{At: at, Kind: trace.KindCPCommand, Slot: 2, Word: 1},
				trace.Event{At: at.Add(sim.Nanosecond), Kind: trace.KindCPAck, Slot: 2, Word: 0},
			)
		}},
		{"detector-false-positive", "detector", func() []trace.Event {
			return []trace.Event{{At: t0, Kind: trace.KindRefDetect, RefAt: t0.Add(-5 * sim.Nanosecond)}}
		}},
		{"detector-latency-bound", "detector", func() []trace.Event {
			evs := refCycle(p, t0)[:3] // hold, PREA, REF
			return append(evs, trace.Event{At: t0.Add(20 * sim.Nanosecond),
				Kind: trace.KindRefDetect, RefAt: t0})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New(p)
			for _, e := range tc.events() {
				a.Record(&e)
			}
			if tc.rule == "" {
				if err := a.Err(); err != nil {
					t.Fatalf("clean stream flagged: %v (all: %v)", err, a.Violations())
				}
				return
			}
			if a.ViolationCount() == 0 {
				t.Fatalf("stream not flagged, want rule %q", tc.rule)
			}
			found := false
			for _, v := range a.Violations() {
				if v.Rule == tc.rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("want rule %q, got %v", tc.rule, a.Violations())
			}
		})
	}
}

// TestAuditorDroppedAckTolerated checks an injected ack drop is counted but
// not a violation: the CP deadline/re-issue protocol recovers it.
func TestAuditorDroppedAckTolerated(t *testing.T) {
	p := testParams()
	a := New(p)
	t0 := sim.Time(0).Add(1000 * sim.Nanosecond)
	for _, e := range refCycle(p, t0) {
		a.Record(&e)
	}
	at := inWin(p, t0)
	a.Record(&trace.Event{At: at, Kind: trace.KindCPCommand, Slot: 1, Word: 1})
	a.Record(&trace.Event{At: at.Add(sim.Nanosecond), Kind: trace.KindCPAck, Slot: 1, Word: 1, Dropped: true})
	if err := a.Err(); err != nil {
		t.Fatalf("dropped ack flagged: %v", err)
	}
	if a.DroppedAcks != 1 {
		t.Fatalf("DroppedAcks = %d, want 1", a.DroppedAcks)
	}
}

// TestAuditorErrAndLimit checks the error message shape and that the
// retained list caps at Limit while the count keeps going.
func TestAuditorErrAndLimit(t *testing.T) {
	p := testParams()
	p.Limit = 3
	a := New(p)
	if a.Err() != nil {
		t.Fatal("fresh auditor reports an error")
	}
	for i := 0; i < 10; i++ {
		a.Record(&trace.Event{At: sim.Time(i + 1), Kind: trace.KindNVMCData, Bytes: 4096})
	}
	if got := a.ViolationCount(); got != 10 {
		t.Fatalf("ViolationCount = %d, want 10", got)
	}
	if got := len(a.Violations()); got != 3 {
		t.Fatalf("retained %d violations, want Limit=3", got)
	}
	err := a.Err()
	if err == nil || !strings.Contains(err.Error(), "10 protocol violation(s)") ||
		!strings.Contains(err.Error(), "[exclusivity]") {
		t.Fatalf("Err = %v", err)
	}
}

// TestAuditorEvents checks the event counter counts everything, violation
// or not.
func TestAuditorEvents(t *testing.T) {
	p := testParams()
	a := New(p)
	t0 := sim.Time(0).Add(1000 * sim.Nanosecond)
	evs := refCycle(p, t0)
	for _, e := range evs {
		a.Record(&e)
	}
	if got := a.Events(); got != uint64(len(evs)) {
		t.Fatalf("Events = %d, want %d", got, len(evs))
	}
}
