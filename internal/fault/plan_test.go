package fault

import (
	"reflect"
	"strings"
	"testing"
)

// shape is a plane TestParsePlan checks against: a pool of members, or a
// fabric of sockets pools of two.
type shape struct{ sockets, members int }

func pool(members int) shape   { return shape{0, members} }
func fabric(sockets int) shape { return shape{sockets, 2} }

func TestParsePlan(t *testing.T) {
	cases := []struct {
		spec  string
		shape shape
		want  Plan // nil: ParsePlan or Check rejects the spec
	}{
		{"m0:program:1", pool(2), Plan{{-1, 0, Program, 1}}},
		{"m1:mediaread:0", pool(2), Plan{{-1, 1, MediaRead, 1}}}, // onset 0 means 1
		{"m0:mediaread:5, m1:dietimeout:3", pool(2), Plan{{-1, 0, MediaRead, 5}, {-1, 1, DieTimeout, 3}}},
		{" m0:program:1 ", pool(1), Plan{{-1, 0, Program, 1}}},
		{"m2:ackdrop:7", pool(3), Plan{{-1, 2, AckDrop, 7}}}, // a spare is a member
		{"m9:program:1", pool(2), nil},                       // beyond the last member
		{"m2:program:1", pool(2), nil},                       // one past the last member
		{"m-1:program:1", pool(2), nil},
		{"m0:program:-1", pool(2), nil},
		{"m0:program", pool(2), nil},
		{"m0:program:1:2", pool(2), nil},
		{"mx:program:1", pool(2), nil},
		{"0:program:1", pool(2), nil}, // a target names its level
		{"m0:erase:1", pool(2), nil},
		{"m0:program:1,", pool(2), nil},
		{"", pool(2), nil},
		{"m 0:program:1", pool(2), nil},
		{"m0 : program : 1", pool(2), nil},
		{"m0:program:18446744073709551616", pool(2), nil},

		{"s1:program:1", fabric(3), Plan{{1, -1, Program, 1}}},
		{"s0:link:0", fabric(2), Plan{{0, -1, Link, 1}}}, // onset 0 means 1
		{"s0:slow:4, s1:link:8", fabric(2), Plan{{0, -1, Slow, 4}, {1, -1, Link, 8}}},
		{"s1.m1:ackdrop:2", fabric(2), Plan{{1, 1, AckDrop, 2}}},
		{"s2:program:1", fabric(2), nil},
		{"s1.m2:program:1", fabric(2), nil},
		{"s-1:program:1", fabric(2), nil},
		{"s0:program:-3", fabric(2), nil},
		{"s0:program", fabric(2), nil},
		{"s0:melt:1", fabric(2), nil},
		{"s0:program:1,", fabric(2), nil},
		{"s0.m1:link:3", fabric(2), nil}, // a link belongs to a socket
		{"m0:link:3", pool(2), nil},
		{"s0.:program:1", fabric(2), nil},
		{"s0.s1:program:1", fabric(2), nil},
		{"m0:program:1", fabric(2), nil}, // a fabric's targets are sockets
		{"s0:program:1", pool(2), nil},   // a pool has none
	}
	for _, c := range cases {
		got, err := ParsePlan(c.spec)
		if err == nil {
			err = got.Check(c.shape.sockets, c.shape.members)
		}
		if c.want == nil {
			if err == nil {
				t.Errorf("ParsePlan(%q) on %+v = %v, want an error", c.spec, c.shape, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParsePlan(%q) on %+v = %v, %v; want %v", c.spec, c.shape, got, err, c.want)
		}
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{{-1, 2, Program, 1}, {1, -1, Link, 8}, {0, 3, Slow, 5}}
	if got, want := p.String(), "m2:program:1,s1:link:8,s0.m3:slow:5"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := Plan(nil).String(); got != "none" {
		t.Fatalf("empty plan String() = %q, want none", got)
	}
}

// TestKindsArm pins what each kind arms: where its rule starts firing, how
// often it fires over 1000 consults of its site, and its param.
func TestKindsArm(t *testing.T) {
	cases := []struct {
		kind         Kind
		site         Site
		first, fires int // first: 1-based consult of the first fire
		param        int64
	}{
		{Program, NANDProgramFail, 3, 998, 0},
		{MediaRead, NANDReadBitFlip, 3, 300, 0},
		{AckDrop, CPAckDrop, 3, 12, 0},
		{DieTimeout, NANDDieTimeout, -1, -1, 400},
		{Slow, NANDDieTimeout, -1, -1, 12},
	}
	for _, c := range cases {
		g := NewRegistry(1)
		Plan{{-1, 0, c.kind, 3}}.PoolHook()(0, g)
		first, fires := 0, 0
		for i := 1; i <= 1000; i++ {
			ok, param := g.FiresParam(c.site)
			if !ok {
				continue
			}
			if first == 0 {
				first = i
			}
			fires++
			if param != c.param {
				t.Fatalf("%v: param %d, want %d", c.kind, param, c.param)
			}
		}
		if c.first < 0 { // a probability-0.25 rule
			if fires < 150 || fires > 350 {
				t.Errorf("%v: %d fires in 1000, want about 250", c.kind, fires)
			}
		} else if first != c.first || fires != c.fires {
			t.Errorf("%v: first fire at %d, %d fires; want %d, %d", c.kind, first, fires, c.first, c.fires)
		}
	}
}

// TestPlanHooks: each hook arms only its targets, a plan without member
// entries installs no hook, and a link entry becomes a x20 latency, /16
// bandwidth degradation at its onset epoch.
func TestPlanHooks(t *testing.T) {
	p, err := ParsePlan("s1:program:2,s0.m1:ackdrop:4,s2:link:8")
	if err != nil {
		t.Fatal(err)
	}
	armed := func(socket, member int) string {
		g := NewRegistry(1)
		p.FabricHook()(socket, member, g)
		return g.String()
	}
	for _, c := range []struct {
		socket, member int
		want           string // "": no rule
	}{
		{1, 0, "nand.program.fail on-occurrence=2"},
		{1, 1, "nand.program.fail on-occurrence=2"},
		{0, 1, "cp.ack.drop on-occurrence=4 times=12"},
		{0, 0, ""},
		{2, 0, ""},
	} {
		got := armed(c.socket, c.member)
		if c.want == "" && strings.Contains(got, ";") || c.want != "" && !strings.Contains(got, c.want) {
			t.Errorf("s%d.m%d armed %q, want %q", c.socket, c.member, got, c.want)
		}
	}
	if got, want := p.LinkFaults(), []LinkFault{{Epoch: 8, Socket: 2, LatFactor: 20, BWDivide: 16}}; !reflect.DeepEqual(got, want) {
		t.Errorf("LinkFaults() = %+v, want %+v", got, want)
	}
	links := Plan{{2, -1, Link, 8}}
	if links.PoolHook() != nil || links.FabricHook() != nil || Plan(nil).PoolHook() != nil {
		t.Error("a plan without member entries installed an ArmFaults hook")
	}
	g := NewRegistry(1)
	Plan{{-1, 1, Program, 1}}.PoolHook()(0, g)
	if strings.Contains(g.String(), ";") {
		t.Errorf("member 0 armed by a plan for member 1: %s", g)
	}
}

// FuzzPlan: ParsePlan never panics; a plan it accepts has one entry per
// comma-separated part, prints as text that parses back to the same plan,
// and, when Check accepts it for a shape, names only targets inside that
// shape.
func FuzzPlan(f *testing.F) {
	f.Add("m0:program:1", uint8(0), uint8(2))
	f.Add("m0:mediaread:5,m1:dietimeout:0", uint8(0), uint8(3))
	f.Add("m1:ackdrop:9223372036854775807", uint8(0), uint8(2))
	f.Add(" m0 : program : 1", uint8(0), uint8(1))
	f.Add("s1:program:1", uint8(3), uint8(2))
	f.Add("s0:slow:4,s1:link:0,s1.m0:ackdrop:3", uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, spec string, sockets, members uint8) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if n := strings.Count(spec, ",") + 1; len(p) != n {
			t.Fatalf("%q: %d entries from %d parts", spec, len(p), n)
		}
		q, err := ParsePlan(p.String())
		if err != nil || !reflect.DeepEqual(p, q) {
			t.Fatalf("%q: String %q parses to %v, %v; want %v", spec, p, q, err, p)
		}
		if p.Check(int(sockets), int(members)) != nil {
			return
		}
		for _, e := range p {
			inRange := e.Onset >= 1 && int(e.Kind) < len(kinds) && e.Member < int(members)
			if sockets == 0 {
				inRange = inRange && e.Socket == -1 && e.Member >= 0
			} else {
				inRange = inRange && e.Socket >= 0 && e.Socket < int(sockets) && e.Member >= -1
			}
			if e.Kind == Link {
				inRange = inRange && e.Socket >= 0 && e.Member == -1
			}
			if !inRange {
				t.Fatalf("%q on %d sockets x %d members: accepted out-of-range %+v", spec, sockets, members, e)
			}
		}
	})
}
