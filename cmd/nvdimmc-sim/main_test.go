package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"nvdimmc/internal/fault"
	"nvdimmc/internal/sim"
)

// entry is a keyed fault.Entry literal.
func entry(socket, member int, k fault.Kind, onset int) fault.Entry {
	return fault.Entry{Socket: socket, Member: member, Kind: k, Onset: onset}
}

// TestParseFaults: a pool's -faults plan names members m<i> of the
// channels x dimms modules plus the spares.
func TestParseFaults(t *testing.T) {
	cases := []struct {
		spec                    string
		channels, dimms, spares int
		want                    fault.Plan // nil: an error
	}{
		{"m0:program:1", 2, 1, 0, fault.Plan{entry(-1, 0, fault.Program, 1)}},
		{"m1:mediaread:0", 2, 1, 0, fault.Plan{entry(-1, 1, fault.MediaRead, 1)}}, // onset 0 means 1
		{"m0:mediaread:5, m1:dietimeout:3", 2, 1, 0, fault.Plan{entry(-1, 0, fault.MediaRead, 5), entry(-1, 1, fault.DieTimeout, 3)}},
		{"m2:ackdrop:7", 2, 1, 1, fault.Plan{entry(-1, 2, fault.AckDrop, 7)}}, // a spare is a member
		{"m3:program:1", 2, 2, 0, fault.Plan{entry(-1, 3, fault.Program, 1)}}, // so is every DIMM
		{"m3:program:1", 2, 1, 1, nil}, // one past the spare
		{"m9:program:1", 2, 1, 0, nil}, // beyond the last member
		{"m2:program:1", 2, 1, 0, nil}, // one past the last member
		{"m-1:program:1", 2, 1, 0, nil},
		{"m0:program:-1", 2, 1, 0, nil},
		{"m0:program", 2, 1, 0, nil},
		{"m0:program:1:2", 2, 1, 0, nil},
		{"mx:program:1", 2, 1, 0, nil},
		{"0:program:1", 2, 1, 0, nil}, // the pre-plan syntax
		{"m0:erase:1", 2, 1, 0, nil},
		{"m0:program:1,", 2, 1, 0, nil},
		{"s0:program:1", 2, 1, 0, nil}, // a lone pool has no sockets
		{"", 2, 1, 0, nil},
	}
	for _, c := range cases {
		o := planeOpts{faults: c.spec, channels: c.channels, dimms: c.dimms, spares: c.spares}
		got, err := o.parseFaults(0)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseFaults(%q) on %dx%d+%d = %v, want an error", c.spec, c.channels, c.dimms, c.spares, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseFaults(%q) on %dx%d+%d = %v, %v; want %v", c.spec, c.channels, c.dimms, c.spares, got, err, c.want)
		}
	}
}

// TestParseSocketFaults: a fabric's -faults plan names sockets s<j> or
// their members s<j>.m<i>; the removed -sfaults syntax is an error.
func TestParseSocketFaults(t *testing.T) {
	cases := []struct {
		spec    string
		sockets int
		want    fault.Plan // nil: an error
	}{
		{"s1:program:1", 3, fault.Plan{entry(1, -1, fault.Program, 1)}},
		{"s0:link:0", 2, fault.Plan{entry(0, -1, fault.Link, 1)}}, // onset 0 means 1
		{"s0:slow:4, s1:link:8", 2, fault.Plan{entry(0, -1, fault.Slow, 4), entry(1, -1, fault.Link, 8)}},
		{"s1.m1:ackdrop:2", 2, fault.Plan{entry(1, 1, fault.AckDrop, 2)}},
		{"s1.m2:ackdrop:2", 2, nil}, // two members per socket
		{"s2:program:1", 2, nil},
		{"s-1:program:1", 2, nil},
		{"s0:program:-3", 2, nil},
		{"s0:program", 2, nil},
		{"s0:melt:1", 2, nil},
		{"s0:program:1,", 2, nil},
		{"m0:program:1", 2, nil}, // a fabric's targets are sockets
		{"1:kill:1", 3, nil},     // the -sfaults syntax
		{"", 2, nil},
	}
	for _, c := range cases {
		o := planeOpts{faults: c.spec, channels: 2, dimms: 1, sockets: c.sockets}
		got, err := o.parseFaults(c.sockets)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseFaults(%q) on %d sockets = %v, want an error", c.spec, c.sockets, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseFaults(%q) on %d sockets = %v, %v; want %v", c.spec, c.sockets, got, err, c.want)
		}
	}
}

// checkFaults fails t unless plan, which parseFaults accepted from spec on
// sockets pools (0: a lone pool) of members members, has one entry per
// comma-separated part, each naming an existing target, a known kind and
// an onset of at least 1.
func checkFaults(t *testing.T, spec string, plan fault.Plan, sockets, members int) {
	t.Helper()
	if n := strings.Count(spec, ",") + 1; len(plan) != n {
		t.Fatalf("%q: %d entries from %d parts", spec, len(plan), n)
	}
	for _, e := range plan {
		ok := e.Onset >= 1 && e.Member < members
		if sockets == 0 {
			ok = ok && e.Socket == -1 && e.Member >= 0
		} else {
			ok = ok && e.Socket >= 0 && e.Socket < sockets && e.Member >= -1
		}
		if e.Kind == fault.Link {
			ok = ok && e.Socket >= 0 && e.Member == -1
		} else if k, err := fault.ParseKind(e.Kind.String()); err != nil || k != e.Kind {
			ok = false
		}
		if !ok {
			t.Fatalf("%q on %d sockets x %d members: accepted out-of-range %+v", spec, sockets, members, e)
		}
	}
}

// FuzzParseFaults: parseFaults never panics on a pool's -faults, and a
// plan it accepts names only the pool's members.
func FuzzParseFaults(f *testing.F) {
	f.Add("m0:program:1", uint8(2))
	f.Add("m9:program:1", uint8(2))
	f.Add("m0:mediaread:5,m1:dietimeout:0", uint8(3))
	f.Add("m1:ackdrop:9223372036854775807", uint8(2))
	f.Add(" m0:program:1 ", uint8(1))
	f.Fuzz(func(t *testing.T, spec string, members uint8) {
		o := planeOpts{faults: spec, channels: int(members), dimms: 1}
		if plan, err := o.parseFaults(0); err == nil {
			checkFaults(t, spec, plan, 0, int(members))
		}
	})
}

// FuzzParseSocketFaults: the same property for a fabric of two-member
// sockets: every accepted entry names an existing socket or member.
func FuzzParseSocketFaults(f *testing.F) {
	f.Add("s1:program:1", uint8(3))
	f.Add("s2:program:1", uint8(2))
	f.Add("s0:slow:4,s1:link:0", uint8(2))
	f.Add("s0:link:9223372036854775807", uint8(1))
	f.Fuzz(func(t *testing.T, spec string, sockets uint8) {
		o := planeOpts{faults: spec, channels: 2, dimms: 1, sockets: int(sockets)}
		if plan, err := o.parseFaults(int(sockets)); err == nil {
			checkFaults(t, spec, plan, int(sockets), 2)
		}
	})
}

func TestParseQoS(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
	}{
		{"zipf:8:1:40000:32:0,uni:1:1:0:0:1500", true},
		{" uni:1:2:0:0:0", true},
		{"zipf:8:1:40000:32", false},     // five fields
		{"zipf:8:1:40000:32:0:1", false}, // seven
		{"pareto:8:1:40000:32:0", false},
		{"zipf:x:1:40000:32:0", false},
		{"zipf:8:1:40000:1.5:0", false}, // burst is an integer
		{"zipf:8:1:40000:32:0,", false},
	}
	for _, c := range cases {
		got, err := parseQoS(c.spec, 70, 4096)
		if (err == nil) != c.ok {
			t.Errorf("parseQoS(%q) = %v, %v; want ok=%v", c.spec, got, err, c.ok)
		}
	}
	ts, err := parseQoS("zipf:8:1:40000:32:0,uni:1:1:0:0:1500", -1, 512)
	if err != nil || len(ts) != 2 || ts[1].Name != "t1" || ts[1].ReadPct != -1 || ts[1].BlockSize != 512 ||
		ts[0].Burst != 32 || ts[1].SLOP99 != 1500*sim.Microsecond {
		t.Errorf("parseQoS: %+v, %v", ts, err)
	}
}

func TestReadPercent(t *testing.T) {
	for rw, want := range map[string]int{"randread": 0, "randwrite": -1, "read": 1, "write": 1, "": 1} {
		got, err := readPercent(rw)
		if want == 1 {
			if err == nil {
				t.Errorf("readPercent(%q) = %d, want an error", rw, got)
			}
		} else if err != nil || got != want {
			t.Errorf("readPercent(%q) = %d, %v; want %d", rw, got, err, want)
		}
	}
}

func TestCheckPlaneFlags(t *testing.T) {
	cases := []struct {
		bs, pendingCap int
		plane, ok      bool
	}{
		{4096, 0, true, true},
		{512, 64, true, true},
		{0, 0, true, false}, // the generator would run it as 4096
		{-4096, 0, true, false},
		{4096, -3, true, false}, // the pool would run it as 256
		{4096, -1, false, false},
		{0, 0, false, true}, // single-module mode: fio rejects it itself
	}
	for _, c := range cases {
		err := checkPlaneFlags(c.bs, c.pendingCap, c.plane)
		if (err == nil) != c.ok {
			t.Errorf("checkPlaneFlags(%d, %d, %v) = %v, want ok=%v", c.bs, c.pendingCap, c.plane, err, c.ok)
		}
	}
}

func TestLinkBandwidth(t *testing.T) {
	cases := []struct {
		gbps float64
		want int64 // 0: an error
	}{
		{8, 8 << 30},
		{0.5, 1 << 29},
		{1.0 / (1 << 30), 1}, // exactly 1 B/s
		{0, 0},               // the fabric would run it as 8 GB/s
		{-4, 0},
		{1e-12, 0}, // below 1 B/s: converts to 0
		{math.Inf(1), 0},
		{math.NaN(), 0},
		{1e10, 0}, // past int64
	}
	for _, c := range cases {
		got, err := linkBandwidth(c.gbps)
		if c.want == 0 {
			if err == nil {
				t.Errorf("linkBandwidth(%g) = %d, want an error", c.gbps, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("linkBandwidth(%g) = %d, %v; want %d", c.gbps, got, err, c.want)
		}
	}
}
