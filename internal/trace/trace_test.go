package trace

import (
	"strings"
	"testing"

	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/sim"
)

func TestRingOrderAndWrap(t *testing.T) {
	l := New(3)
	for i := 0; i < 5; i++ {
		l.Record(&Event{At: sim.Time(i), Kind: KindCommand, Detail: string(rune('a' + i))})
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	if evs[0].Detail != "c" || evs[2].Detail != "e" {
		t.Fatalf("wrong window: %v", evs)
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d", l.Total())
	}
}

func TestCounts(t *testing.T) {
	l := New(8)
	l.Record(&Event{Kind: KindRefresh, Detail: "r"})
	l.Record(&Event{Kind: KindRefresh, Detail: "r"})
	l.Record(&Event{Kind: KindCollision, Detail: "boom"})
	if l.Count(KindRefresh) != 2 || l.Count(KindCollision) != 1 {
		t.Fatal("counters wrong")
	}
}

func TestNilSafe(t *testing.T) {
	var l *Log
	l.Record(&Event{Kind: KindCommand, Detail: "x"}) // must not panic
}

func TestDump(t *testing.T) {
	l := New(8)
	l.Record(&Event{At: sim.Time(7800 * sim.Nanosecond), Kind: KindRefresh, Detail: "iMC-issued-refresh"})
	l.Record(&Event{At: sim.Time(8200 * sim.Nanosecond), Kind: KindWindow, Detail: "open"})
	var sb strings.Builder
	l.Dump(&sb, 0)
	out := sb.String()
	for _, want := range []string{"iMC-issued-refresh", "window", "2 events total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	// Last-1 truncation.
	sb.Reset()
	l.Dump(&sb, 1)
	if strings.Contains(sb.String(), "iMC-issued-refresh") {
		t.Fatal("truncated dump kept old events")
	}
}

type captureSink struct{ evs []Event }

func (c *captureSink) Record(e *Event) { c.evs = append(c.evs, *e) }

func TestRecorderFanOut(t *testing.T) {
	var r Recorder
	if r.Active() {
		t.Fatal("empty recorder active")
	}
	var nilR *Recorder
	if nilR.Active() {
		t.Fatal("nil recorder active")
	}
	nilR.Record(Event{}) // must not panic
	r.Attach(nil)        // ignored
	if r.Active() {
		t.Fatal("nil sink counted as active")
	}
	a, b := &captureSink{}, &captureSink{}
	l := New(2)
	r.Attach(a)
	r.Attach(b)
	r.Attach(l)
	if !r.Active() {
		t.Fatal("recorder with sinks inactive")
	}
	r.Record(Event{At: 1, Kind: KindRefresh})
	r.Record(Event{At: 2, Kind: KindWindow})
	if len(a.evs) != 2 || len(b.evs) != 2 || l.Total() != 2 {
		t.Fatalf("fan-out: %d/%d/%d, want 2/2/2", len(a.evs), len(b.evs), l.Total())
	}
	if a.evs[1].Kind != KindWindow || b.evs[0].At != 1 {
		t.Fatal("fan-out payload mangled")
	}
}

func TestDescribe(t *testing.T) {
	us := sim.Time(1000 * sim.Nanosecond)
	for _, tc := range []struct {
		e    Event
		want []string
	}{
		{Event{Kind: KindWindow, Detail: "free-form wins"}, []string{"free-form wins"}},
		{Event{Kind: KindCommand, Master: MasterHost, Cmd: ddr4.Command{Kind: ddr4.CmdPrechargeAll}},
			[]string{"iMC:", "PREA"}},
		{Event{Kind: KindRefresh, Master: MasterHost, Cmd: ddr4.Command{Kind: ddr4.CmdRefresh}},
			[]string{"iMC:", "REF"}},
		{Event{Kind: KindCommand, Master: MasterNVMC, Cmd: ddr4.Command{Kind: ddr4.CmdActivate}},
			[]string{"NVMC:", "ACT"}},
		{Event{Kind: KindRefreshHold, End: us}, []string{"bus held until 1.000us"}},
		{Event{Kind: KindRefDetect, RefAt: us}, []string{"REF@1.000us detected"}},
		{Event{Kind: KindWindow, End: us, RefAt: us}, []string{"open until 1.000us", "(ref 1.000us)"}},
		{Event{Kind: KindNVMCData, Read: true, Addr: 0x40, Bytes: 4096}, []string{"read 4096B @0x40"}},
		{Event{Kind: KindHostData, Addr: 0x80, Bytes: 64, End: us}, []string{"write 64B @0x80 until 1.000us"}},
		{Event{Kind: KindCPCommand, Slot: 2, Word: 1}, []string{"slot 2:"}},
		{Event{Kind: KindCPAck, Slot: 3, Word: 1, Windows: 2, Dropped: true},
			[]string{"slot 3:", "(2 windows)", "DROPPED"}},
	} {
		got := tc.e.Describe()
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("%v Describe() = %q, missing %q", tc.e.Kind, got, w)
			}
		}
	}
	// String prepends timestamp and kind.
	s := Event{At: us, Kind: KindRefreshHold, End: us}.String()
	if !strings.Contains(s, "1.000us") || !strings.Contains(s, "ref-hold") {
		t.Errorf("String() = %q", s)
	}
}
