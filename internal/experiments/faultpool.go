package experiments

import (
	"fmt"

	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/report"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// faultKinds are the campaign's four failure modes, cycled across points:
// a persistent program failure (grown bad blocks -> read-only -> quarantine,
// failover and rebuild), a bounded burst of uncorrectable reads (retry and
// breaker territory), probabilistic die timeouts (latency tails, no errors),
// and dropped CP acks (transport timeouts and driver retries).
var faultKinds = []string{"program", "mediaread", "dietimeout", "ackdrop"}

// FaultPoolPoint is one seeded campaign point: a 3-channel pool with one hot
// spare, one sick member, and a mixed open-loop load.
type FaultPoolPoint struct {
	Point  int
	Kind   string
	Victim int // logical member carrying the fault
	Onset  int // site occurrence at which the fault schedule starts

	Availability float64 // completed / submitted
	P99          sim.Duration
	RebuildP99   sim.Duration // p99 of requests completing while a rebuild ran (0: none did)

	Failed         uint64
	AckedLost      uint64 // writes admitted but neither acked nor typed-failed (must be 0)
	PostQuarantine uint64 // fragments dispatched after quarantine (must be 0)
	Quarantined    int
	Evacuated      int
	SparesUsed     int
	RebuildPages   uint64
	BreakerTrips   uint64
	Retries        uint64
	// Suspects counts probe transitions into Suspect; transient faults the
	// member rode out show up here (paired with a later recovery) even when
	// the pool never saw a fragment fail.
	Suspects uint64
	// DriverErrors sums the members' driver-level error events (CP ack
	// timeouts, cachefill retries, ...): transient faults the drivers rode
	// out internally show up here even when no fragment ever failed.
	DriverErrors uint64
}

// FaultPoolResult is the socket-scale fault campaign table.
type FaultPoolResult struct {
	Rows []FaultPoolPoint
}

// Points returns the campaign size.
func (r FaultPoolResult) Points() int { return len(r.Rows) }

// AckedLostTotal sums acked-write loss across the campaign; the robustness
// claim is that it is zero at every point.
func (r FaultPoolResult) AckedLostTotal() uint64 {
	var t uint64
	for _, p := range r.Rows {
		t += p.AckedLost
	}
	return t
}

// PostQuarantineTotal sums post-quarantine dispatches (must be zero).
func (r FaultPoolResult) PostQuarantineTotal() uint64 {
	var t uint64
	for _, p := range r.Rows {
		t += p.PostQuarantine
	}
	return t
}

// MinAvailability returns the campaign's worst per-point availability.
func (r FaultPoolResult) MinAvailability() float64 {
	min := 1.0
	for _, p := range r.Rows {
		if p.Availability < min {
			min = p.Availability
		}
	}
	if len(r.Rows) == 0 {
		return 0
	}
	return min
}

// Failovers returns how many points engaged the hot spare.
func (r FaultPoolResult) Failovers() int {
	n := 0
	for _, p := range r.Rows {
		if p.SparesUsed > 0 {
			n++
		}
	}
	return n
}

// faultMemberCfg is the campaign member at both scales: a shrunken module
// with capacity close to its cache (the pool-test shape). Fault sites are
// only consulted on NAND and CP operations, and never-written pages
// zero-fill without touching NAND — so the campaign needs a working set
// that forces evictions (mapping pages onto media) and then re-reads them.
// A near-capacity footprint over a small member does exactly that; a
// paper-scale member would spend the whole campaign on unmapped zero-fills.
func faultMemberCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.NAND.BlocksPerDie = 32
	cfg.NAND.PagesPerBlock = 16
	// Surface NAND program failures to the driver instead of letting the FTL
	// absorb them (posted programs never fail a front-end op otherwise).
	cfg.NVMC.AckAfterProgram = true
	// The auditor does not model deferred program acks under pipelined load
	// (it flags them as duplicated acks), so it is off for the campaign.
	cfg.Audit = false
	return cfg
}

// campaignPool is the pool shape of the fault, overload and QoS campaigns
// (and the numa campaign's per-socket template): 3 channels + 1 hot spare
// of member, prefilled to 90% of the cache. It builds on one worker, as
// campaign points are the parallel axis (TestPoolFaultedWorkerCountIdentical
// covers the in-pool axis). Misses serialize on a member's driver (~10
// epochs per completion), so the breaker window spans many epochs to
// gather samples.
func campaignPool(member core.Config, seed uint64, lockstep bool) pool.Config {
	return pool.Config{
		Channels:           3,
		DIMMsPerChannel:    1,
		Interleave:         4096,
		Member:             member,
		Workers:            1,
		Seed:               seed,
		PrefillPages:       -1,
		Spares:             1,
		DisableLookahead:   lockstep,
		BreakerWindow:      64,
		BreakerMinSamples:  6,
		BreakerErrRate:     0.4,
		BreakerCooldown:    8,
		BreakerCloseStreak: 4,
	}
}

// armFault returns the ArmFaults hook that installs fault kind on member
// victim, its occurrence-triggered kinds firing from the onset-th visit of
// their site; nil for "none".
func armFault(kind string, victim, onset int) func(int, *fault.Registry) {
	if kind == "none" {
		return nil
	}
	return func(member int, g *fault.Registry) {
		if member != victim {
			return
		}
		switch kind {
		case "program":
			g.OnOccurrence(fault.NANDProgramFail, uint64(onset)).Times(1 << 30)
		case "mediaread":
			g.OnOccurrence(fault.NANDReadBitFlip, uint64(onset)).Times(300)
		case "dietimeout":
			g.Prob(fault.NANDDieTimeout, 0.25).Param(400)
		case "ackdrop":
			g.OnOccurrence(fault.CPAckDrop, uint64(onset)).Times(12)
		}
	}
}

// campaignFootprint is the pool capacity rounded down to the interleave:
// the near-capacity working set the campaigns draw from.
func campaignFootprint(p *pool.Pool) int64 {
	foot := p.Capacity()
	return foot - foot%p.Cfg.Interleave
}

// faultPoolPoint runs one campaign point. Each point is a fully independent
// pool (own seed splits for member RNG, fault schedules and workload), so
// points fan across shards with byte-identical merged output.
func faultPoolPoint(o Options, pt, reqs int) (FaultPoolPoint, error) {
	kind := faultKinds[pt%len(faultKinds)]
	const channels = 3
	victim := (pt / len(faultKinds)) % channels
	onset := 1 + 7*(pt/(len(faultKinds)*channels))

	cfg := campaignPool(faultMemberCfg(), sim.SplitSeed(11, fmt.Sprintf("faultpool/%d", pt)), o.DisableLookahead)
	cfg.ArmFaults = armFault(kind, victim, onset)
	p, err := pool.New(cfg)
	if err != nil {
		return FaultPoolPoint{}, fmt.Errorf("faultpool point %d: %w", pt, err)
	}
	// Full-capacity footprint: most accesses miss, evictions map pages onto
	// NAND, and re-reads consult the media fault sites (see faultMemberCfg).
	foot := campaignFootprint(p)
	// mediaread points run a pure-read tenant at triple length: the bitflip
	// site is only consulted when a read reaches NAND, which takes an
	// evicted dirty page being re-read later — a rare event per op, so
	// these points need the extra traffic to ride the driver's cachefill
	// retries and the probe's Suspect->Up recovery into view. (The
	// guaranteed bitflip->fragment-failure chain is pinned by the pool's
	// breaker unit test; the campaign's job here is the transient-recovery
	// row.)
	readPct, preqs := 55, reqs
	if kind == "mediaread" {
		readPct, preqs = 100, 3*reqs
	}
	gen, err := openloop.New(openloop.Config{
		Seed:       sim.SplitSeed(11, fmt.Sprintf("faultpool-load/%d", pt)),
		RatePerSec: 1.5e6,
		Tenants: []openloop.Tenant{
			{Name: "mix", Dist: openloop.Uniform, ReadPct: readPct, Footprint: foot},
		},
	})
	if err != nil {
		return FaultPoolPoint{}, err
	}
	if err := pool.RunOpenLoop(p, gen, preqs, nil); err != nil {
		return FaultPoolPoint{}, fmt.Errorf("faultpool point %d (%s m%d): %w", pt, kind, victim, err)
	}
	if err := p.CheckHealth(); err != nil {
		return FaultPoolPoint{}, fmt.Errorf("faultpool point %d (%s m%d): %w", pt, kind, victim, err)
	}
	s := p.Stats()
	row := FaultPoolPoint{
		Point:          pt,
		Kind:           kind,
		Victim:         victim,
		Onset:          onset,
		P99:            s.Lat.Percentile(99),
		Failed:         s.Failed,
		AckedLost:      s.WritesLost(),
		PostQuarantine: s.PostQuarantineDispatches,
		Quarantined:    s.Quarantined,
		Evacuated:      s.Evacuated,
		SparesUsed:     s.SparesUsed,
		RebuildPages:   s.Ctr.Get("rebuild-pages"),
		BreakerTrips:   s.Ctr.Get("breaker-trip"),
		Retries:        s.Ctr.Get("frags-retried"),
		Suspects:       s.Ctr.Get("member-suspect"),
	}
	for _, m := range s.PerMember {
		row.DriverErrors += m.DriverErrors
	}
	if s.Submitted > 0 {
		row.Availability = float64(s.Completed) / float64(s.Submitted)
	}
	if s.LatRebuild.Count() > 0 {
		row.RebuildP99 = s.LatRebuild.Percentile(99)
	}
	return row, nil
}

// FaultPool is the socket-scale fault campaign capping the pool's
// fault-tolerance layer: >= 32 seeded points, each a 3-channel + 1-spare
// pool with one sick member cycling through four failure modes, varying the
// victim and the fault onset. Per point it tables availability, the p99
// tail while the rebuild ran, and the conservation counters; the campaign
// claim is zero acked-write loss and zero post-quarantine dispatches at
// every point. Points fan across o.Parallel shards; the merged table is
// byte-identical at any worker count.
func FaultPool(o Options) (FaultPoolResult, error) {
	var res FaultPoolResult
	points := o.pick(48, 32)
	reqs := o.pick(600, 300)

	rows, err := runShards(points, o.workers(), func(pt int) (FaultPoolPoint, error) {
		return faultPoolPoint(o, pt, reqs)
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows

	o.printf("== FaultPool: %d-point socket fault campaign (3ch + 1 spare, %d reqs/point) ==\n",
		points, reqs)
	var avail []float64
	for _, r := range res.Rows {
		avail = append(avail, 100*r.Availability)
		reb := "-"
		if r.RebuildP99 > 0 {
			reb = fmt.Sprint(r.RebuildP99)
		}
		o.printf("  pt%02d %-10s m%d@%-3d avail=%6.2f%% p99=%-10v rebuild-p99=%-10s "+
			"derr=%-3d failed=%-3d retries=%-3d susp=%d trips=%d quar=%d evac=%d spare=%d pages=%-3d lost=%d postq=%d\n",
			r.Point, r.Kind, r.Victim, r.Onset, 100*r.Availability, r.P99, reb,
			r.DriverErrors, r.Failed, r.Retries, r.Suspects, r.BreakerTrips, r.Quarantined, r.Evacuated,
			r.SparesUsed, r.RebuildPages, r.AckedLost, r.PostQuarantine)
	}
	o.printf("  availability %s  min %.2f%%\n", report.Sparkline(avail), 100*res.MinAvailability())
	o.printf("  acked writes lost: %d  post-quarantine dispatches: %d  failovers: %d/%d points\n",
		res.AckedLostTotal(), res.PostQuarantineTotal(), res.Failovers(), points)
	return res, nil
}
