package fault

import (
	"fmt"
	"strings"
	"testing"

	"nvdimmc/internal/sim"
)

func TestNilRegistryIsInert(t *testing.T) {
	var g *Registry
	if g.Fires(NANDProgramFail) {
		t.Fatal("nil registry fired")
	}
	if ok, _ := g.FiresParam(NANDReadBitFlip); ok {
		t.Fatal("nil registry fired with param")
	}
	if g.Hits(NANDProgramFail) != 0 || g.Fired(NANDProgramFail) != 0 || g.TotalFired() != 0 {
		t.Fatal("nil registry reported activity")
	}
	if !strings.Contains(g.String(), "none") {
		t.Fatalf("nil registry string: %q", g.String())
	}
}

func TestAlwaysFiresEveryOccurrence(t *testing.T) {
	g := NewRegistry(sim.NewKernel(), 1)
	g.Always(NANDProgramFail).Param(7)
	for i := 0; i < 5; i++ {
		ok, p := g.FiresParam(NANDProgramFail)
		if !ok || p != 7 {
			t.Fatalf("occurrence %d: fires=%v param=%d", i, ok, p)
		}
	}
	if g.Fired(NANDProgramFail) != 5 || g.Hits(NANDProgramFail) != 5 {
		t.Fatalf("fired=%d hits=%d", g.Fired(NANDProgramFail), g.Hits(NANDProgramFail))
	}
	// Unrelated sites stay silent.
	if g.Fires(NANDEraseFail) {
		t.Fatal("unarmed site fired")
	}
}

func TestOnOccurrenceIsOneShotAtExactCount(t *testing.T) {
	g := NewRegistry(sim.NewKernel(), 1)
	g.OnOccurrence(CPAckDrop, 3)
	var fires []int
	for i := 1; i <= 6; i++ {
		if g.Fires(CPAckDrop) {
			fires = append(fires, i)
		}
	}
	if len(fires) != 1 || fires[0] != 3 {
		t.Fatalf("fired at %v, want exactly [3]", fires)
	}
}

func TestTimesExtendsOneShot(t *testing.T) {
	g := NewRegistry(sim.NewKernel(), 1)
	g.OnOccurrence(CPAckDrop, 2).Times(3)
	var fires []int
	for i := 1; i <= 8; i++ {
		if g.Fires(CPAckDrop) {
			fires = append(fires, i)
		}
	}
	want := []int{2, 3, 4}
	if len(fires) != len(want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fires, want)
		}
	}
}

func TestAtTimeFiresOnceAfterDeadline(t *testing.T) {
	k := sim.NewKernel()
	g := NewRegistry(k, 1)
	g.AtTime(NVMCFirmwareStall, sim.Time(100))
	if g.Fires(NVMCFirmwareStall) {
		t.Fatal("fired before the scheduled instant")
	}
	k.Schedule(150*sim.Picosecond, func() {})
	k.Run()
	if !g.Fires(NVMCFirmwareStall) {
		t.Fatal("did not fire after the scheduled instant")
	}
	if g.Fires(NVMCFirmwareStall) {
		t.Fatal("one-shot fired twice")
	}
}

func TestProbIsSeedReproducible(t *testing.T) {
	run := func(seed uint64) []bool {
		g := NewRegistry(sim.NewKernel(), seed)
		g.Prob(RefdetSampleFlip, 0.3)
		out := make([]bool, 64)
		for i := range out {
			out[i] = g.Fires(RefdetSampleFlip)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at consult %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams (suspicious)")
	}
	// The rate should be in the right ballpark for p=0.3 over 64 draws.
	n := 0
	for _, v := range a {
		if v {
			n++
		}
	}
	if n == 0 || n == len(a) {
		t.Fatalf("probabilistic rule fired %d/64 times at p=0.3", n)
	}
}

func TestClearDisarms(t *testing.T) {
	g := NewRegistry(sim.NewKernel(), 1)
	g.Always(BusSnoopDrop)
	if !g.Fires(BusSnoopDrop) {
		t.Fatal("armed rule did not fire")
	}
	g.Clear(BusSnoopDrop)
	if g.Fires(BusSnoopDrop) {
		t.Fatal("cleared rule fired")
	}
}

func TestStringCarriesSeedAndRules(t *testing.T) {
	g := NewRegistry(sim.NewKernel(), 0xDEAD)
	g.Always(NANDProgramFail)
	g.Fires(NANDProgramFail)
	s := g.String()
	if !strings.Contains(s, "0xdead") {
		t.Fatalf("seed missing from %q", s)
	}
	if !strings.Contains(s, "nand.program.fail") {
		t.Fatalf("rule missing from %q", s)
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	g := NewRegistry(sim.NewKernel(), 1)
	g.OnOccurrence(NANDReadBitFlip, 2).Param(11)
	g.Always(NANDReadBitFlip).Param(22)
	// Occurrence 1: one-shot not yet eligible, Always fires.
	if ok, p := g.FiresParam(NANDReadBitFlip); !ok || p != 22 {
		t.Fatalf("occurrence 1: ok=%v p=%d", ok, p)
	}
	// Occurrence 2: the one-shot is installed first and fires with its param.
	if ok, p := g.FiresParam(NANDReadBitFlip); !ok || p != 11 {
		t.Fatalf("occurrence 2: ok=%v p=%d", ok, p)
	}
}

func TestSiteNamesStable(t *testing.T) {
	// The names appear in failure output and replay instructions, so they
	// are part of the interface: pin a few and require every site to have
	// its own.
	if NANDReadBitFlip.String() != "nand.read.bitflip" || RefdetSampleFlip.String() != "refdet.sample.flip" {
		t.Fatalf("site names moved: %v, %v", NANDReadBitFlip, RefdetSampleFlip)
	}
	seen := map[string]bool{}
	for s := Site(0); s < numSites; s++ {
		name := s.String()
		if name == "" || seen[name] {
			t.Fatalf("site %d has an empty or duplicate name %q", s, name)
		}
		seen[name] = true
	}
	if got, want := Site(numSites).String(), fmt.Sprintf("fault.Site(%d)", numSites); got != want {
		t.Fatalf("out-of-catalog site renders as %q", got)
	}
}
