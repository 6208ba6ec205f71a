package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseFaults(t *testing.T) {
	cases := []struct {
		spec    string
		members int
		want    []faultSpec
	}{
		{"0:program:1", 2, []faultSpec{{0, "program", 1}}},
		{"1:mediaread:0", 2, []faultSpec{{1, "mediaread", 1}}}, // nth 0 means 1
		{"0:mediaread:5, 1:dietimeout:3", 2, []faultSpec{{0, "mediaread", 5}, {1, "dietimeout", 3}}},
		{"2:ackdrop:7", 3, []faultSpec{{2, "ackdrop", 7}}}, // a spare is a member
		{"9:program:1", 2, nil}, // beyond the last member
		{"2:program:1", 2, nil}, // one past the last member
		{"-1:program:1", 2, nil},
		{"0:program:-1", 2, nil},
		{"0:program", 2, nil},
		{"0:program:1:2", 2, nil},
		{"x:program:1", 2, nil},
		{"0:erase:1", 2, nil},
		{"0:program:1,", 2, nil},
		{"", 2, nil},
	}
	for _, c := range cases {
		got, err := parseFaults(c.spec, c.members)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseFaults(%q, %d) = %v, want an error", c.spec, c.members, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseFaults(%q, %d) = %v, %v; want %v", c.spec, c.members, got, err, c.want)
		}
	}
}

func TestParseSocketFaults(t *testing.T) {
	cases := []struct {
		spec    string
		sockets int
		want    []sfaultSpec
	}{
		{"1:kill:1", 3, []sfaultSpec{{1, "kill", 1}}},
		{"0:link:0", 2, []sfaultSpec{{0, "link", 1}}}, // onset 0 means 1
		{"0:slow:4, 1:link:8", 2, []sfaultSpec{{0, "slow", 4}, {1, "link", 8}}},
		{"2:kill:1", 2, nil},
		{"-1:kill:1", 2, nil},
		{"0:kill:-3", 2, nil},
		{"0:kill", 2, nil},
		{"0:melt:1", 2, nil},
		{"0:kill:1,", 2, nil},
		{"", 2, nil},
	}
	for _, c := range cases {
		got, err := parseSocketFaults(c.spec, c.sockets)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseSocketFaults(%q, %d) = %v, want an error", c.spec, c.sockets, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseSocketFaults(%q, %d) = %v, %v; want %v", c.spec, c.sockets, got, err, c.want)
		}
	}
}

// FuzzParseFaults: parseFaults never panics, and a spec it accepts has one
// entry per comma-separated part, each naming an existing member, a known
// kind and an nth of at least 1.
func FuzzParseFaults(f *testing.F) {
	f.Add("0:program:1", uint8(2))
	f.Add("9:program:1", uint8(2))
	f.Add("0:mediaread:5,1:dietimeout:0", uint8(3))
	f.Add("1:ackdrop:18446744073709551615", uint8(2))
	f.Add(" 0 : program : 1", uint8(1))
	f.Fuzz(func(t *testing.T, spec string, members uint8) {
		out, err := parseFaults(spec, int(members))
		if err != nil {
			return
		}
		if n := strings.Count(spec, ",") + 1; len(out) != n {
			t.Fatalf("%q: %d specs from %d entries", spec, len(out), n)
		}
		for _, sp := range out {
			if sp.member < 0 || sp.member >= int(members) || sp.nth < 1 {
				t.Fatalf("%q with %d members: accepted out-of-range %+v", spec, members, sp)
			}
			switch sp.kind {
			case "program", "mediaread", "dietimeout", "ackdrop":
			default:
				t.Fatalf("%q: accepted unknown kind %q", spec, sp.kind)
			}
		}
	})
}

// FuzzParseSocketFaults: the same property for -sfaults: every accepted
// entry names an existing socket, a known kind and an onset of at least 1.
func FuzzParseSocketFaults(f *testing.F) {
	f.Add("1:kill:1", uint8(3))
	f.Add("2:kill:1", uint8(2))
	f.Add("0:slow:4,1:link:0", uint8(2))
	f.Add("0:link:9223372036854775807", uint8(1))
	f.Fuzz(func(t *testing.T, spec string, sockets uint8) {
		out, err := parseSocketFaults(spec, int(sockets))
		if err != nil {
			return
		}
		if n := strings.Count(spec, ",") + 1; len(out) != n {
			t.Fatalf("%q: %d specs from %d entries", spec, len(out), n)
		}
		for _, sp := range out {
			if sp.socket < 0 || sp.socket >= int(sockets) || sp.onset < 1 {
				t.Fatalf("%q with %d sockets: accepted out-of-range %+v", spec, sockets, sp)
			}
			switch sp.kind {
			case "kill", "slow", "link":
			default:
				t.Fatalf("%q: accepted unknown kind %q", spec, sp.kind)
			}
		}
	})
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
