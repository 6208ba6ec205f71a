package main

import (
	"errors"
	"flag"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nvdimmc/internal/experiments"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/numa"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
)

// entry is a keyed fault.Entry literal.
func entry(socket, member int, k fault.Kind, onset int) fault.Entry {
	return fault.Entry{Socket: socket, Member: member, Kind: k, Onset: onset}
}

// parseFaults parses spec as the plane modes parse -faults and checks the
// plan with Point.Check on sockets pools (0: a lone pool) of channels x
// dimms members plus the spares.
func parseFaults(spec string, sockets, channels, dimms, spares int) (fault.Plan, error) {
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		return nil, err
	}
	pt := experiments.Point{
		Pool:      pool.Config{Channels: channels, DIMMsPerChannel: dimms, Spares: spares},
		Fabric:    numa.Config{Sockets: sockets},
		BlockSize: 4096,
		Plan:      plan,
	}
	return plan, pt.Check()
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
		got, err := parseFaults(c.spec, 0, c.channels, c.dimms, c.spares)
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
		got, err := parseFaults(c.spec, c.sockets, 2, 1, 0)
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
		if plan, err := parseFaults(spec, 0, int(members), 1, 0); err == nil {
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
		if plan, err := parseFaults(spec, int(sockets), 2, 1, 0); err == nil {
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
		// A plane run is a pool of two channels; -pendingcap is set only
		// when not its default.
		args := []string{"-bs", strconv.Itoa(c.bs)}
		if c.pendingCap != 0 {
			args = append(args, "-pendingcap", strconv.Itoa(c.pendingCap))
		}
		if c.plane {
			args = append(args, "-channels", "2")
		}
		_, _, err := parseFlags(flag.NewFlagSet("nvdimmc-sim", flag.ContinueOnError), args)
		if (err == nil) != c.ok {
			t.Errorf("parseFlags(%q) = %v, want ok=%v", args, err, c.ok)
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

// TestRefusedFlags: a flag set on the command line that the chosen mode
// does not read makes the command exit 2 and name it, before anything
// runs, instead of printing what the same command without it prints.
func TestRefusedFlags(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ args, refused, mode string }{
		{"-rate 2e6 -ops 200", "-rate", "module"},
		{"-xlat 900 -interleave 2097152 -isolation=false -ops 200", "-interleave, -isolation, -xlat", "module"},
		{"-channels 1 -ops 200", "-channels", "module"},
		{"-sockets 2 -rate 1e6 -ops 300 -deadline 1 -admission deadline-aware -pendingcap 2 -qos zipf:8:1:40000:32:0,uni:1:1:0:0:1500",
			"-admission, -deadline, -pendingcap, -qos", "fabric"},
		{"-sockets 2 -isolation=false -ops 300", "-isolation", "fabric"},
		{"-channels 2 -target pmem -ops 200", "-target", "pool"},
		{"-channels 2 -numjobs 4 -ops 200", "-numjobs", "pool"},
		{"-channels 2 -uncached -policy lru -audit=false -ops 200", "-audit, -policy, -uncached", "pool"},
		{"-sockets 2 -xbw 4 -numjobs 2 -ops 300", "-numjobs", "fabric"},
		{"-faults m0:program:1 -xlat 900 -ops 200", "-xlat", "pool"},
	}
	for _, c := range cases {
		cmd := exec.Command(exe, append([]string{runMainArg}, strings.Fields(c.args)...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		want := c.refused + ": not read in " + c.mode + " mode"
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), want) {
			t.Errorf("nvdimmc-sim %s: %v, stderr %q, stdout %d bytes; want exit 2 naming %q",
				c.args, err, stderr.String(), len(out), want)
		}
	}
}
