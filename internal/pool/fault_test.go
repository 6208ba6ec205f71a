package pool

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nvdimmc/internal/fault"
	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/workload/openloop"
)

// faultFootprint returns a pooled footprint about twice the cache-resident
// region (capped at capacity): fault campaigns need cache misses, because a
// fully resident workload never touches NAND or the CP transport — the
// fault sites would never be consulted.
func faultFootprint(p *Pool) int64 {
	foot := 2 * p.CachedFootprint()
	if foot > p.Capacity() {
		foot = p.Capacity()
	}
	return foot - foot%p.Cfg.Interleave
}

// fullSnapshot extends snapshot() with every fault-tolerance observable:
// the faulted byte-identity test compares these across worker counts.
func fullSnapshot(s Stats) string {
	var b strings.Builder
	b.WriteString(snapshot(s))
	first := "<nil>"
	if s.FirstFailure != nil {
		first = s.FirstFailure.Error()
	}
	fmt.Fprintf(&b, "fault failed=%d win=%d wrfailed=%d postq=%d quar=%d evac=%d spares=%d first=%q\n",
		s.Failed, s.WritesIn, s.WritesFailed, s.PostQuarantineDispatches,
		s.Quarantined, s.Evacuated, s.SparesUsed, first)
	fmt.Fprintf(&b, "rebuildlat n=%d p99=%v\n", s.LatRebuild.Count(), s.LatRebuild.Percentile(99))
	for i, m := range s.PerMember {
		fmt.Fprintf(&b, "m%d state=%v spare=%v svc=%v log=%d mode=%v derr=%d ferr=%d reason=%q\n",
			i, m.State, m.Spare, m.InService, m.Logical, m.Mode, m.DriverErrors, m.FragErrors, m.Reason)
	}
	for i, ch := range s.PerChannel {
		fmt.Fprintf(&b, "brk%d %s\n", i, ch.Breaker)
	}
	return b.String()
}

// TestPoolReadOnlyMidRunSurfacesTypedError is the satellite regression: a
// member driver flipping to read-only mid-run used to panic the pooled
// scheduler out of Do's legacy no-error path (or, with panics swallowed,
// wedge the window). Now every affected request must terminate with a typed
// ErrPoolDegraded chain, the sick member must be quarantined, and the pool's
// books must balance.
func TestPoolReadOnlyMidRunSurfacesTypedError(t *testing.T) {
	p := newTestPool(t, 2, 1, 1, 4096, func(c *Config) {
		c.Member.NVMC.AckAfterProgram = true // surface program failures to the driver
		// The auditor does not model deferred program acks under pipelined
		// load (it flags them as duplicated acks), so it is off here.
		c.Member.Audit = false
		c.ArmFaults = func(member int, g *fault.Registry) {
			if member == 0 {
				g.Always(fault.NANDProgramFail) // first writeback fails hard -> ReadOnly
			}
		}
	})
	gcfg := openloop.Config{
		Seed: 21, RatePerSec: 2e6,
		Tenants: []openloop.Tenant{
			{Name: "wr", Dist: openloop.Uniform, ReadPct: -1, Footprint: faultFootprint(p)},
		},
	}
	gen, err := openloop.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunOpenLoop(p, gen, 250, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Failed == 0 {
		t.Fatal("no request failed despite a read-only member and no spare")
	}
	if s.Completed+s.Failed != s.Submitted {
		t.Fatalf("accounting: %d completed + %d failed != %d submitted", s.Completed, s.Failed, s.Submitted)
	}
	if !errors.Is(s.FirstFailure, ErrPoolDegraded) {
		t.Fatalf("first failure %v does not wrap ErrPoolDegraded", s.FirstFailure)
	}
	if !errors.Is(s.FirstFailure, nvdc.ErrReadOnly) && !errors.Is(s.FirstFailure, ErrMemberQuarantined) {
		t.Fatalf("first failure %v carries neither nvdc.ErrReadOnly nor ErrMemberQuarantined", s.FirstFailure)
	}
	if st := s.PerMember[0].State; st != StateQuarantined {
		t.Fatalf("member 0 state %v, want quarantined (no spare to evacuate to)", st)
	}
	if s.Ctr.Get("member-quarantine") != 1 {
		t.Fatalf("member-quarantine = %d, want 1", s.Ctr.Get("member-quarantine"))
	}
	if s.Ctr.Get("frags-rejected") == 0 {
		t.Fatal("no fragment was typed-rejected after quarantine")
	}
	if s.Ctr.Get("failover-no-spare") != 1 {
		t.Fatalf("failover-no-spare = %d, want 1", s.Ctr.Get("failover-no-spare"))
	}
}

// TestPoolQuarantineFailoverRebuild drives the full tentpole path: a member
// goes read-only, the probe quarantines it, its logical position fails over
// to the hot spare, the background rebuild copies the victim's resident set
// across, and the victim ends Evacuated — all while the pool keeps serving
// and loses no acked write.
func TestPoolQuarantineFailoverRebuild(t *testing.T) {
	p := newTestPool(t, 2, 1, 2, 4096, func(c *Config) {
		c.Spares = 1
		c.Member.NVMC.AckAfterProgram = true
		c.Member.Audit = false
		c.ArmFaults = func(member int, g *fault.Registry) {
			if member == 0 {
				g.Always(fault.NANDProgramFail)
			}
		}
	})
	gcfg := openloop.Config{
		Seed: 33, RatePerSec: 1.5e6,
		Tenants: []openloop.Tenant{
			{Name: "mix", Dist: openloop.Uniform, ReadPct: 50, Footprint: faultFootprint(p)},
		},
	}
	gen, err := openloop.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunOpenLoop(p, gen, 300, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.SparesUsed != 1 || s.Ctr.Get("failover") != 1 {
		t.Fatalf("spares used %d, failover ctr %d, want 1/1", s.SparesUsed, s.Ctr.Get("failover"))
	}
	if st := s.PerMember[0].State; st != StateEvacuated {
		t.Fatalf("victim state %v, want evacuated", st)
	}
	spare := s.PerMember[len(s.PerMember)-1]
	if !spare.Spare || !spare.InService || spare.Logical != 0 {
		t.Fatalf("spare not serving logical 0: %+v", spare)
	}
	if s.Ctr.Get("member-evacuated") != 1 || s.Ctr.Get("rebuild-pages") == 0 {
		t.Fatalf("rebuild did not run to completion: evacuated=%d pages=%d",
			s.Ctr.Get("member-evacuated"), s.Ctr.Get("rebuild-pages"))
	}
	if s.PostQuarantineDispatches != 0 {
		t.Fatalf("%d fragments dispatched to the quarantined member", s.PostQuarantineDispatches)
	}
	if s.LatRebuild.Count() == 0 {
		t.Fatal("no foreground request completed during the rebuild window")
	}
	if s.WritesAcked+s.WritesFailed != s.WritesIn {
		t.Fatalf("acked-write loss: %d in, %d acked, %d typed-failed",
			s.WritesIn, s.WritesAcked, s.WritesFailed)
	}
	if s.Completed*10 < s.Submitted*9 {
		t.Fatalf("availability %d/%d below 90%% despite failover", s.Completed, s.Submitted)
	}
}

// TestPoolFaultedWorkerCountIdentical extends the pool's core determinism
// claim to a faulted run: hard failure + failover + rebuild on one member,
// probabilistic die timeouts on another, and the full fault-tolerance
// snapshot must still be byte-identical at 1, 2 and 8 workers.
func TestPoolFaultedWorkerCountIdentical(t *testing.T) {
	var snaps []string
	for _, workers := range []int{1, 2, 8} {
		p := newTestPool(t, 3, 1, workers, 4096, func(c *Config) {
			c.Spares = 1
			c.Member.NVMC.AckAfterProgram = true
			c.Member.Audit = false
			c.ArmFaults = func(member int, g *fault.Registry) {
				switch member {
				case 0:
					g.OnOccurrence(fault.NANDProgramFail, 3).Times(1 << 30)
				case 1:
					g.Prob(fault.NANDDieTimeout, 0.2).Param(400)
				}
			}
		})
		gcfg := openloop.Config{
			Seed: 77, RatePerSec: 1.5e6,
			Tenants: []openloop.Tenant{
				{Name: "mix", Dist: openloop.Uniform, ReadPct: 60, Footprint: faultFootprint(p)},
			},
		}
		gen, err := openloop.New(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := RunOpenLoop(p, gen, 300, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.CheckHealth(); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, fullSnapshot(p.Stats()))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("worker count changed faulted output:\n--- workers=1 ---\n%s--- variant %d ---\n%s",
				snaps[0], i, snaps[i])
		}
	}
}

// TestPoolBreakerTripsAndRecovers: a bounded burst of uncorrectable reads
// on the only member pushes the channel's failure rate over the trip
// threshold; the breaker opens, cools down, probes half-open, and closes on
// the success streak once the fault budget is exhausted.
func TestPoolBreakerTripsAndRecovers(t *testing.T) {
	p := newTestPool(t, 1, 1, 1, 4096, func(c *Config) {
		noProbe(c) // isolate the breaker from quarantine
		// Misses serialize on the lone member at ~10 epochs per completion,
		// so the window must span many epochs to gather MinSamples.
		c.BreakerWindow = 64
		c.BreakerMinSamples = 4
		c.BreakerErrRate = 0.3
		c.BreakerCooldown = 8
		c.BreakerCloseStreak = 4
		c.ArmFaults = func(member int, g *fault.Registry) {
			// A sustained burst of uncorrectable reads (~3-6 fires per failed
			// op) that outlasts a breaker window, then the media heals.
			g.OnOccurrence(fault.NANDReadBitFlip, 1).Times(300)
		}
	})
	// Full-capacity footprint: ~90% of reads miss, so nearly every op in the
	// fault burst fails and the trip threshold is reached within one window.
	gcfg := openloop.Config{
		Seed: 55, RatePerSec: 1e6,
		Tenants: []openloop.Tenant{
			{Name: "rd", Dist: openloop.Uniform, ReadPct: 100, Footprint: p.Capacity()},
		},
	}
	gen, err := openloop.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunOpenLoop(p, gen, 300, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Ctr.Get("breaker-trip") == 0 {
		t.Fatalf("breaker never tripped (frag-errors=%d)", s.Ctr.Get("frag-errors"))
	}
	if s.Ctr.Get("breaker-close") == 0 {
		t.Fatal("breaker never closed after the fault burst ended")
	}
	if b := s.PerChannel[0].Breaker; b != "closed" {
		t.Fatalf("final breaker state %q, want closed", b)
	}
	if s.Completed+s.Failed != s.Submitted {
		t.Fatalf("accounting: %d + %d != %d", s.Completed, s.Failed, s.Submitted)
	}
}
