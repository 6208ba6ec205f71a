package fault

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind is one fault of a Plan's vocabulary. Probabilistic kinds ignore
// their onset.
type Kind uint8

const (
	Program    Kind = iota // every NAND program fails from the onset-th: quarantine, failover, rebuild
	MediaRead              // 300 page reads from the onset-th are uncorrectable
	DieTimeout             // a quarter of die operations take 400x, past the driver's CP ack deadline
	AckDrop                // 12 CP acks from the onset-th command are dropped
	Slow                   // a quarter of die operations take 12x: a 100 us program stays under the 1.5 ms ack deadline
	Link                   // the socket's links degrade at fabric epoch onset: latency x20, bandwidth /16
)

// kinds names each Kind and arms it on a member's registry (Link arms no
// member).
var kinds = []struct {
	name string
	arm  func(g *Registry, onset uint64)
}{
	Program:    {"program", func(g *Registry, n uint64) { g.OnOccurrence(NANDProgramFail, n).Times(1 << 30) }},
	MediaRead:  {"mediaread", func(g *Registry, n uint64) { g.OnOccurrence(NANDReadBitFlip, n).Times(300) }},
	DieTimeout: {"dietimeout", func(g *Registry, _ uint64) { g.Prob(NANDDieTimeout, 0.25).Param(400) }},
	AckDrop:    {"ackdrop", func(g *Registry, n uint64) { g.OnOccurrence(CPAckDrop, n).Times(12) }},
	Slow:       {"slow", func(g *Registry, _ uint64) { g.Prob(NANDDieTimeout, 0.25).Param(12) }},
	Link:       {"link", nil},
}

func (k Kind) String() string { return kinds[k].name }

// ParseKind returns the kind named name.
func ParseKind(name string) (Kind, error) {
	for k := range kinds {
		if kinds[k].name == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown fault kind %q (want program | mediaread | dietimeout | ackdrop | slow | link)", name)
}

// LinkFault degrades the interconnect at a scheduled epoch boundary (see
// numa.Config.LinkFaults).
type LinkFault struct {
	Epoch               int // the fabric epoch at whose boundary it applies
	Socket              int // every link touching it degrades; negative: the whole fabric
	LatFactor, BWDivide int // latency multiplier and bandwidth divisor (values < 1 are ignored)
}

// Entry is one fault of a plan: Kind on a target from Onset, the site
// occurrence (1-based) an occurrence kind starts firing at or a link's
// fabric epoch. The target is member Member of a lone pool (Socket -1),
// every member of socket Socket (Member -1), or member Member of Socket.
type Entry struct {
	Socket, Member int
	Kind           Kind
	Onset          int
}

// Plan is the faults one run arms, in order. Every level takes one: a
// pool through PoolHook, a fabric through FabricHook and LinkFaults.
type Plan []Entry

// ParsePlan parses comma-separated target:kind:onset entries. A target is
// a pool member m<i>, every member of a socket s<j>, or one member of a
// socket s<j>.m<i>; a link takes only s<j>. An onset of 0 reads as 1.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	for _, part := range strings.Split(s, ",") {
		bad := func(why string) (Plan, error) {
			return nil, fmt.Errorf("bad fault plan entry %q: %s", part, why)
		}
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) != 3 {
			return bad("want target:kind:onset")
		}
		// The level a target leaves out reads -1, a malformed index -2.
		sock, member, both := strings.Cut(f[0], ".")
		if !both && !strings.HasPrefix(sock, "s") {
			sock, member = "", sock
		}
		e := Entry{Socket: index(sock, "s"), Member: index(member, "m")}
		if lo, hi := min(e.Socket, e.Member), max(e.Socket, e.Member); hi < 0 || lo < -1 || both && lo < 0 {
			return bad("want target m<i>, s<j> or s<j>.m<i> with non-negative indices")
		}
		var err error
		if e.Kind, err = ParseKind(f[1]); err != nil {
			return bad(err.Error())
		}
		if e.Kind == Link && e.Member >= 0 {
			return bad("a link fault targets a socket s<j>")
		}
		if e.Onset, err = strconv.Atoi(f[2]); err != nil || e.Onset < 0 {
			return bad("want a non-negative onset")
		}
		e.Onset = max(e.Onset, 1)
		p = append(p, e)
	}
	return p, nil
}

// index parses prefix<i>, a non-negative target index: -1 for "", and -2
// for anything else that is not one.
func index(s, prefix string) int {
	if s == "" {
		return -1
	}
	s, ok := strings.CutPrefix(s, prefix)
	if i, err := strconv.Atoi(s); ok && err == nil && i >= 0 {
		return i
	}
	return -2
}

// String renders the plan as ParsePlan's text. The empty plan, which
// ParsePlan never returns, prints as "none".
func (p Plan) String() string {
	if len(p) == 0 {
		return "none"
	}
	parts := make([]string, len(p))
	for i, e := range p {
		target := fmt.Sprintf("s%d.m%d", e.Socket, e.Member)
		if e.Socket < 0 {
			target = fmt.Sprintf("m%d", e.Member)
		} else if e.Member < 0 {
			target = fmt.Sprintf("s%d", e.Socket)
		}
		parts[i] = fmt.Sprintf("%s:%s:%d", target, e.Kind, e.Onset)
	}
	return strings.Join(parts, ",")
}

// Check reports the first entry outside a plane of sockets pools of
// members members each (sockets 0: a lone pool, whose targets are m<i>).
func (p Plan) Check(sockets, members int) error {
	want := fmt.Sprintf("m<i> with i < %d", members)
	if sockets > 0 {
		want = fmt.Sprintf("s<j> or s<j>.m<i> with j < %d and i < %d", sockets, members)
	}
	for _, e := range p {
		if (sockets == 0) != (e.Socket < 0) || e.Socket >= sockets || e.Member >= members {
			return fmt.Errorf("bad fault plan entry %q: want target %s", Plan{e}, want)
		}
	}
	return nil
}

// FabricHook returns the numa.Config.ArmFaults hook that arms p's entries
// on their members in plan order, or nil when p arms no member.
func (p Plan) FabricHook() func(socket, member int, g *Registry) {
	if !slices.ContainsFunc(p, func(e Entry) bool { return e.Kind != Link }) {
		return nil
	}
	return func(socket, member int, g *Registry) {
		for _, e := range p {
			if e.Kind != Link && e.Socket == socket && (e.Member == member || e.Member < 0) {
				kinds[e.Kind].arm(g, uint64(e.Onset))
			}
		}
	}
}

// PoolHook is FabricHook for a lone pool's pool.Config.ArmFaults.
func (p Plan) PoolHook() func(member int, g *Registry) {
	if arm := p.FabricHook(); arm != nil {
		return func(member int, g *Registry) { arm(-1, member, g) }
	}
	return nil
}

// LinkFaults returns p's link entries for numa.Config.LinkFaults, or nil
// when p has none.
func (p Plan) LinkFaults() []LinkFault {
	var out []LinkFault
	for _, e := range p {
		if e.Kind == Link {
			out = append(out, LinkFault{Epoch: e.Onset, Socket: e.Socket, LatFactor: 20, BWDivide: 16})
		}
	}
	return out
}
