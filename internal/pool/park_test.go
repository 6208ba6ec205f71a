package pool

import (
	"fmt"
	"strings"
	"testing"

	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
	"nvdimmc/internal/workload/openloop"
)

// memberState prints what a member's refresh path leaves behind: its clock
// and next refresh instant, and the detector, NVMC, iMC, DRAM, bus and
// auditor counters. Members in the same state print the same.
func memberState(s *core.System) string {
	nr, on := s.IMC.NextRefreshAt()
	rd, wr := s.DRAM.Stats()
	hc, nc, hb, nb := s.Channel.Stats()
	aud := "off"
	if s.Auditor != nil {
		aud = fmt.Sprintf("%d/%d", s.Auditor.Events(), s.Auditor.ViolationCount())
	}
	return fmt.Sprintf("now=%v next=%v/%v det=%+v nvmc=%+v imc-ref=%d dram-ref=%d dram-rw=%d/%d bus=%d/%d/%d/%d audit=%s",
		s.K.Now(), nr, on, s.Detector.Stats(), s.NVMC.Stats(), s.IMC.Refreshes(),
		s.DRAM.RefreshCount(), rd, wr, hc, nc, hb, nb, aud)
}

// rebuildState prints the progress of every active rebuild job.
func rebuildState(p *Pool) string {
	var b strings.Builder
	for _, j := range p.rebuilds {
		fmt.Fprintf(&b, "%d->%d next=%d out=%d miss=%d wfail=%d;",
			j.victim, j.spare, j.next, j.outstanding, j.readMiss, j.writeFail)
	}
	return b.String()
}

// TestParkedMembersMatchLockstep: parking is invisible. A lookahead pool
// and its lockstep twin take the same seeded interleaving of Submit, Step,
// quiet spans (the twin steps them epoch by epoch) and Drain. At random
// boundaries every member, caught up through Member, must match its twin.
// After every action the rebuild jobs must match, and a parked member must
// still be quiescent (nothing scheduled on it). The runs end on identical
// stats. The cases cover QoS (buckets refill across parked spans), a
// failover whose rebuild reads and writes members that were parked, and a
// fault-armed pool, where no member may park. The lookahead runs must
// actually park members (ParkedAdvances).
func TestParkedMembersMatchLockstep(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(*Config)
		// violateAt, when positive, is the action at which member 1's
		// auditor logs a violation in both twins, so the next probe
		// quarantines it and fails it over to the spare.
		violateAt int
		armed     bool // every member carries a fault registry
	}{
		{name: "qos", mut: func(c *Config) {
			c.QoS = QoSConfig{Isolation: true, Tenants: []TenantQoS{
				{Name: "policed", Weight: 2, RatePerSec: 5e4, Burst: 2, SLOP99: 50 * sim.Microsecond},
				{Name: "free", Weight: 1},
			}}
		}},
		{name: "failover", mut: func(c *Config) { c.Spares = 1 }, violateAt: 80},
		{name: "fault-armed", armed: true, mut: func(c *Config) {
			c.Spares = 1
			c.Member.NVMC.AckAfterProgram = true
			c.Member.Audit = false
			c.ArmFaults = func(member int, g *fault.Registry) {
				if member == 0 {
					g.OnOccurrence(fault.NANDProgramFail, 4).Times(1 << 30)
				}
			}
		}},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				a := newTestPool(t, 3, 1, 1, 4096, c.mut)
				b := newTestPool(t, 3, 1, 1, 4096, c.mut, func(c *Config) { c.DisableLookahead = true })
				same := func(act int) {
					t.Helper()
					if a.Now() != b.Now() || a.Epochs() != b.Epochs() {
						t.Fatalf("action %d: lookahead at %v epoch %d, lockstep at %v epoch %d",
							act, a.Now(), a.Epochs(), b.Now(), b.Epochs())
					}
					for i := 0; i < a.Members(); i++ {
						if sa, sb := memberState(a.Member(i)), memberState(b.Member(i)); sa != sb {
							t.Fatalf("action %d, member %d:\nlookahead %s\nlockstep  %s", act, i, sa, sb)
						}
					}
				}
				rng := sim.NewRand(seed)
				foot := faultFootprint(a) / PageSize
				for act := 1; act <= 400; act++ {
					if act == c.violateAt {
						for _, p := range []*Pool{a, b} {
							p.Member(1).Auditor.Record(trace.Event{At: 0, Kind: trace.KindOther}) // time runs backwards
						}
					}
					switch n := rng.Intn(10); {
					case n < 4:
						r := openloop.Request{
							Arrival: a.Elapsed() + sim.Duration(rng.Int63n(int64(2*a.Epoch()))),
							Tenant:  rng.Intn(3),
							Off:     rng.Int63n(foot) * PageSize,
							Len:     PageSize * (1 + rng.Intn(2)),
							Write:   rng.Intn(3) == 0,
						}
						if r.Off+int64(r.Len) > a.Capacity() {
							r.Len = PageSize
						}
						ida, erra := a.Submit(r)
						idb, errb := b.Submit(r)
						if ida != idb || fmt.Sprint(erra) != fmt.Sprint(errb) {
							t.Fatalf("action %d: Submit = %d, %v (lookahead) vs %d, %v (lockstep)", act, ida, erra, idb, errb)
						}
					case n < 7:
						a.Step()
						b.Step()
					case n < 9:
						if k := a.QuietEpochs(1 + rng.Intn(64)); k > 1 {
							a.StepQuiet(k)
							for i := 0; i < k; i++ {
								b.Step()
							}
						} else {
							a.Step()
							b.Step()
						}
					default:
						if err := a.Drain(); err != nil {
							t.Fatal(err)
						}
						if err := b.Drain(); err != nil {
							t.Fatal(err)
						}
					}
					for i, m := range a.members {
						if m.parked && (c.armed || !m.sys.Quiescent()) {
							t.Fatalf("action %d: member %d parked (fault-armed=%v, quiescent=%v)",
								act, i, c.armed, m.sys.Quiescent())
						}
					}
					if ra, rb := rebuildState(a), rebuildState(b); ra != rb {
						t.Fatalf("action %d: rebuilds %s (lookahead) vs %s (lockstep)", act, ra, rb)
					}
					if rng.Intn(4) == 0 {
						same(act)
					}
				}
				for _, p := range []*Pool{a, b} {
					if err := p.Drain(); err != nil {
						t.Fatal(err)
					}
					if err := p.CheckHealth(); err != nil {
						t.Fatal(err)
					}
				}
				same(0)
				sa, sb := a.Stats(), b.Stats()
				if fa, fb := fullSnapshot(sa)+qosSnapshot(sa), fullSnapshot(sb)+qosSnapshot(sb); fa != fb {
					t.Fatalf("parking changed output:\n--- lookahead ---\n%s--- lockstep ---\n%s", fa, fb)
				}
				if c.violateAt > 0 && (sa.Ctr.Get("failover") != 1 || sa.Evacuated != 1) {
					t.Fatalf("failover=%d evacuated=%d, want a completed rebuild", sa.Ctr.Get("failover"), sa.Evacuated)
				}
				if n := a.ParkedAdvances(); (n == 0) != c.armed {
					t.Fatalf("lookahead skipped %d parked member advances (fault-armed=%v)", n, c.armed)
				}
				if n := b.ParkedAdvances(); n != 0 {
					t.Fatalf("lockstep skipped %d member advances", n)
				}
			})
		}
	}
}
