package experiments

import (
	"fmt"

	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/report"
	"nvdimmc/internal/sim"
)

// faultKinds are the campaign's four member failure modes, cycled across
// points: quarantine, failover and rebuild (program), retry and breaker
// territory (mediaread), stalls past the ack deadline (dietimeout), and
// transport timeouts and driver retries (ackdrop).
var faultKinds = []fault.Kind{fault.Program, fault.MediaRead, fault.DieTimeout, fault.AckDrop}

// FaultPoolPoint is one seeded campaign point: a 3-channel pool with one hot
// spare, one sick member, and a mixed open-loop load.
type FaultPoolPoint struct {
	Point  int
	Kind   string
	Victim int // logical member carrying the fault
	Onset  int // site occurrence at which the fault schedule starts

	Outcome
	RebuildP99 sim.Duration // p99 of requests completing while a rebuild ran (0: none did)

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
	Campaign[FaultPoolPoint]
}

// PostQuarantineTotal sums post-quarantine dispatches (must be zero).
func (r FaultPoolResult) PostQuarantineTotal() uint64 {
	return total(r.Rows, func(p FaultPoolPoint) uint64 { return p.PostQuarantine })
}

// Failovers returns how many points engaged the hot spare.
func (r FaultPoolResult) Failovers() int {
	return count(r.Rows, func(p FaultPoolPoint) bool { return p.SparesUsed > 0 })
}

// faultPoolTable is the campaign's points and row: point pt is a fully
// independent pool (own seed splits for member RNG, fault schedules and
// workload), so points fan across shards with byte-identical merged
// output. Its fault's kind cycles fastest, then the victim member, then
// the onset. The load covers the full capacity: most accesses miss,
// evictions map pages onto NAND, and re-reads consult the media fault
// sites (see core.FaultedConfig). mediaread points run a pure-read tenant
// at triple length: the bitflip site is only consulted when a read
// reaches NAND, which takes an evicted dirty page being re-read later — a
// rare event per op, so these points need the extra traffic to ride the
// driver's cachefill retries and the probe's Suspect->Up recovery into
// view. (The guaranteed bitflip->fragment-failure chain is pinned by the
// pool's breaker unit test; the campaign's job here is the
// transient-recovery row.) A row's kind, victim and onset are its plan's
// one entry.
func faultPoolTable(o Options) ([]Point, func(int, Point) (FaultPoolPoint, error)) {
	const channels = 3 // campaignPoint's
	k := len(faultKinds)
	pts := make([]Point, o.pick(48, 32))
	for pt := range pts {
		e := fault.Entry{Socket: -1, Member: (pt / k) % channels, Kind: faultKinds[pt%k], Onset: 1 + 7*(pt/(k*channels))}
		readPct, reqs := 55, o.pick(600, 300)
		if e.Kind == fault.MediaRead {
			readPct, reqs = 100, 3*reqs
		}
		plan := fault.Plan{e}
		pts[pt] = campaignPoint(fmt.Sprintf("faultpool point %d (%s)", pt, plan), core.FaultedConfig(),
			sim.SplitSeed(11, fmt.Sprintf("faultpool/%d", pt)), sim.SplitSeed(11, fmt.Sprintf("faultpool-load/%d", pt)),
			readPct, o.DisableLookahead)
		pts[pt].Load.RatePerSec, pts[pt].Plan, pts[pt].Reqs = 1.5e6, plan, reqs
	}
	return pts, func(pt int, p Point) (FaultPoolPoint, error) {
		pl, out, err := p.Run(nil)
		if err != nil {
			return FaultPoolPoint{}, err
		}
		e, s := p.Plan[0], pl.(*pool.Pool).Stats()
		row := FaultPoolPoint{
			Point:          pt,
			Kind:           e.Kind.String(),
			Victim:         e.Member,
			Onset:          e.Onset,
			Outcome:        out,
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
		if s.LatRebuild.Count() > 0 {
			row.RebuildP99 = s.LatRebuild.Percentile(99)
		}
		return row, nil
	}
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
	pts, row := faultPoolTable(o)
	points, reqs := len(pts), pts[0].Reqs
	var err error
	res.Rows, err = runShards(points, o.workers(), func(i int) (FaultPoolPoint, error) { return row(i, pts[i]) })
	if err != nil {
		return res, err
	}

	o.printf("== FaultPool: %d-point socket fault campaign (3ch + 1 spare, %d reqs/point) ==\n",
		points, reqs)
	var avail []float64
	for _, r := range res.Rows {
		avail = append(avail, 100*r.Availability())
		reb := "-"
		if r.RebuildP99 > 0 {
			reb = fmt.Sprint(r.RebuildP99)
		}
		o.printf("  pt%02d %-10s m%d@%-3d avail=%6.2f%% p99=%-10v rebuild-p99=%-10s "+
			"derr=%-3d failed=%-3d retries=%-3d susp=%d trips=%d quar=%d evac=%d spare=%d pages=%-3d lost=%d postq=%d\n",
			r.Point, r.Kind, r.Victim, r.Onset, 100*r.Availability(), r.Lat.Percentile(99), reb,
			r.DriverErrors, r.Failed, r.Retries, r.Suspects, r.BreakerTrips, r.Quarantined, r.Evacuated,
			r.SparesUsed, r.RebuildPages, r.WritesLost(), r.PostQuarantine)
	}
	o.printf("  availability %s  min %.2f%%\n", report.Sparkline(avail), 100*res.MinAvailability())
	o.printf("  acked writes lost: %d  post-quarantine dispatches: %d  failovers: %d/%d points\n",
		res.AckedLostTotal(), res.PostQuarantineTotal(), res.Failovers(), points)
	return res, nil
}
