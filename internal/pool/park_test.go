package pool

import (
	"fmt"
	"strings"
	"testing"

	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/metrics"
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

// rebuildState prints the progress of every active rebuild and the
// pool's rebuild read-miss and write-fail counts.
func rebuildState(p *Pool) string {
	var b strings.Builder
	for _, j := range p.sup.Jobs {
		fmt.Fprintf(&b, "%d->%d next=%d out=%d;", j.Victim, j.Dest, j.next, j.Outstanding)
	}
	fmt.Fprintf(&b, "miss=%d wfail=%d", p.ctrPool.Get("rebuild-read-miss"), p.ctrPool.Get("rebuild-write-fail"))
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
							p.Member(1).Auditor.Record(&trace.Event{At: 0, Kind: trace.KindOther}) // time runs backwards
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
						if err := Drain(a); err != nil {
							t.Fatal(err)
						}
						if err := Drain(b); err != nil {
							t.Fatal(err)
						}
					}
					for i, m := range a.members {
						if a.sup.Kids[i].Parked && (c.armed || !m.sys.Quiescent()) {
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
					if err := Drain(p); err != nil {
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
				if n := a.sup.Skipped; (n == 0) != c.armed {
					t.Fatalf("lookahead skipped %d parked member advances (fault-armed=%v)", n, c.armed)
				}
				if n := b.sup.Skipped; n != 0 {
					t.Fatalf("lockstep skipped %d member advances", n)
				}
			})
		}
	}
}

// channelView prints channel ci's scheduler state as its readers would see
// it: a parked channel is caught up on a copy (with copied counters), so
// printing it does not move the channel's own catch-up. It adds the
// channel's parked lag in epochs (0 when awake).
func channelView(p *Pool, ci int) (string, int) {
	ch := *p.chans[ci]
	brk := *ch.brk
	ctr := metrics.NewCounters()
	ctr.Merge(ch.ctr)
	brk.ctr, ch.brk, ch.ctr = ctr, &brk, ctr
	lag := 0
	if ch.parked {
		lag = int(p.now.Sub(ch.parkedAt) / p.epoch)
		ch.catchUp(p.now, p.epoch)
	}
	return fmt.Sprintf("ewma=%d busyAt=%v seen=%v done=%d held=%d queued=%d inflight=%d hw=%d/%d "+
		"brk=%v win=%d/%d left=%d cool=%d base=%d streak=%d drr=%d/%v ctr=%s",
		ch.ewma, ch.svcBusyAt, ch.svcSeen, ch.svcDone, ch.held(), len(ch.queue), ch.inflight, ch.heldHW, ch.queueHW,
		brk.state, brk.winFail, brk.winTotal, brk.winLeft, brk.cooldown, brk.coolBase, brk.streak,
		ch.drrNext, ch.drrMid, ctr), lag
}

// TestParkedChannelsMatchLockstep: parking channels is invisible. A
// lookahead pool and its lockstep twin take the same seeded interleaving of
// Submit, Step, quiet spans (the twin steps them epoch by epoch), Poll and
// Drain, with Occupancy, Probe, ProbeSteady and Stats read at random
// boundaries. After every action each channel's EWMA, breaker and counters
// must match its twin's, read through a catch-up on a copy so the check
// itself moves no parked span. A quiet span may not jump an open breaker's
// cooldown expiry. The cases cover shed-newest admission with fragment
// retries, deadline-aware admission, shed-oldest under QoS isolation, and
// breakers that trip on slow completions. The lookahead pool must
// skip channel-epochs; lockstep never parks a channel.
func TestParkedChannelsMatchLockstep(t *testing.T) {
	// A narrow window and a short queue (set on each pool below) build
	// backlogs that shed and expire, and slow completions (misses, and hits
	// that queued) trip breakers.
	trippy := func(c *Config) {
		c.BreakerLatency = 10 * sim.Microsecond
		c.BreakerWindow = 6
		c.BreakerMinSamples = 2
		c.BreakerCooldown = 12
		c.BreakerCloseStreak = 2
		noProbe(c) // keep every member in service
	}
	for _, c := range []struct {
		name string
		mut  func(*Config)
	}{
		{name: "shed-newest-retries", mut: func(c *Config) {
			trippy(c)
			c.Admission = AdmitShedNewest
			c.PendingCap = 16
			c.ArmFaults = func(member int, g *fault.Registry) {
				g.OnOccurrence(fault.NANDReadBitFlip, 1).Times(1 << 30)
			}
		}},
		{name: "deadline-aware", mut: func(c *Config) {
			trippy(c)
			c.Admission = AdmitDeadlineAware
			c.PendingCap = 16
		}},
		{name: "qos-shed-oldest", mut: func(c *Config) {
			trippy(c)
			c.Admission = AdmitShedOldest
			c.PendingCap = 4
			c.QoS = QoSConfig{Isolation: true, Tenants: []TenantQoS{
				{Name: "policed", Weight: 2, RatePerSec: 2e5, Burst: 4},
				{Name: "free", Weight: 1},
			}}
		}},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				a := newTestPool(t, 3, 1, 1, 4096, c.mut)
				b := newTestPool(t, 3, 1, 1, 4096, c.mut, func(c *Config) { c.DisableLookahead = true })
				a.window, a.queueCap = 2, 4
				b.window, b.queueCap = 2, 4
				rng := sim.NewRand(seed)
				foot := faultFootprint(a) / PageSize
				lagged, reads := 0, 0
				var recA, recB []Completion
				same := func(act int, what string, x, y any) {
					t.Helper()
					if sx, sy := fmt.Sprintf("%+v", x), fmt.Sprintf("%+v", y); sx != sy {
						t.Fatalf("action %d, %s:\nlookahead %s\nlockstep  %s", act, what, sx, sy)
					}
				}
				for act := 1; act <= 400; act++ {
					switch n := rng.Intn(20); {
					case n < 8:
						r := openloop.Request{
							Arrival: a.Elapsed() + sim.Duration(rng.Int63n(int64(2*a.Epoch()))),
							Tenant:  rng.Intn(3),
							Off:     rng.Int63n(foot) * PageSize,
							Len:     PageSize * (1 + rng.Intn(3)),
							Write:   rng.Intn(3) == 0,
						}
						if rng.Intn(2) == 0 {
							r.Deadline = sim.Duration(1+rng.Intn(40)) * a.Epoch()
						}
						if r.Off+int64(r.Len) > a.Capacity() {
							r.Len = PageSize
						}
						ida, erra := a.Submit(r)
						idb, errb := b.Submit(r)
						same(act, "Submit", fmt.Sprint(ida, erra), fmt.Sprint(idb, errb))
					case n < 13:
						a.Step()
						b.Step()
					case n < 18:
						k := a.QuietEpochs(1 + rng.Intn(256))
						if k <= 1 {
							a.Step()
							b.Step()
							break
						}
						for ci, ch := range b.chans {
							if ch.brk.state == breakerOpen && k > ch.brk.cooldown {
								t.Fatalf("action %d: quiet span of %d epochs jumps channel %d's cooldown expiry %d epochs out",
									act, k, ci, ch.brk.cooldown)
							}
						}
						a.StepQuiet(k)
						for i := 0; i < k; i++ {
							b.Step()
						}
					case n < 19:
						recA, recB = a.Poll(recA[:0], 0), b.Poll(recB[:0], 0)
						same(act, "Poll", recA, recB)
					default:
						if err := Drain(a); err != nil {
							t.Fatal(err)
						}
						if err := Drain(b); err != nil {
							t.Fatal(err)
						}
					}
					if a.Now() != b.Now() || a.Epochs() != b.Epochs() {
						t.Fatalf("action %d: lookahead at %v epoch %d, lockstep at %v epoch %d",
							act, a.Now(), a.Epochs(), b.Now(), b.Epochs())
					}
					// Reads at random boundaries, each a catch-up point.
					switch rng.Intn(5) {
					case 0:
						same(act, "Occupancy", a.Occupancy(), b.Occupancy())
					case 1:
						same(act, "Probe", a.Probe(), b.Probe())
					case 2:
						same(act, "ProbeSteady", a.ProbeSteady(), b.ProbeSteady())
					case 3:
						same(act, "Stats", fullSnapshot(a.Stats())+qosSnapshot(a.Stats()), fullSnapshot(b.Stats())+qosSnapshot(b.Stats()))
					default:
						reads--
					}
					reads++
					for ci := range a.chans {
						va, lag := channelView(a, ci)
						vb, _ := channelView(b, ci)
						if va != vb {
							t.Fatalf("action %d, channel %d:\nlookahead %s\nlockstep  %s", act, ci, va, vb)
						}
						lagged += lag
						if b.chans[ci].parked {
							t.Fatalf("action %d: lockstep parked channel %d", act, ci)
						}
					}
				}
				for _, p := range []*Pool{a, b} {
					if err := Drain(p); err != nil {
						t.Fatal(err)
					}
					if err := p.CheckHealth(); err != nil {
						t.Fatal(err)
					}
				}
				sa, sb := a.Stats(), b.Stats()
				if fa, fb := fullSnapshot(sa)+qosSnapshot(sa), fullSnapshot(sb)+qosSnapshot(sb); fa != fb {
					t.Fatalf("parking changed output:\n--- lookahead ---\n%s--- lockstep ---\n%s", fa, fb)
				}
				if lagged == 0 || reads == 0 {
					t.Fatalf("%d parked channel-epochs seen, %d reads", lagged, reads)
				}
				if sa.Ctr.Get("breaker-trip") == 0 || sa.Shed == 0 {
					t.Fatalf("breaker trips %d, sheds %d: the drive must trip breakers and shed", sa.Ctr.Get("breaker-trip"), sa.Shed)
				}
			})
		}
	}
}
