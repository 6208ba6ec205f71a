package experiments

import (
	"fmt"

	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/numa"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/report"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// numaKinds are the fabric campaign's three failure modes on a victim
// socket, cycled across points: a kill (program on every member:
// quarantines, evacuation and cross-socket failover), a slow socket
// (latency tails; the lattice must NOT evacuate), and an interconnect
// degrade (remote tails inflate, service continues).
var numaKinds = []struct {
	label string
	kind  fault.Kind
}{{"socket-kill", fault.Program}, {"slow-socket", fault.Slow}, {"xconn-degrade", fault.Link}}

// NumaPoint is one seeded fabric campaign point: a 3-socket fabric with one
// victim socket and a socket-affine open-loop load with cross-socket
// roamers.
type NumaPoint struct {
	Point  int
	Kind   string
	Victim int // victim socket
	Onset  int // fault onset (site occurrence, or link-fault epoch x8)

	// Outcome's Lat holds local completions.
	Outcome
	RemoteP99  sim.Duration // p99 of completions that crossed the interconnect
	MigrateP99 sim.Duration // p99 of foreground completions during migration (0: none)

	PostEvac    uint64 // foreground submissions past Evacuating (must be 0)
	Rehomed     uint64 // directory chunks re-homed to survivors
	MigPages    uint64 // resident pages migrated off the victim
	MigReadMiss uint64
	Retries     uint64 // cross-socket retry promotions
	VictimState string // final lattice state of the victim socket
}

// NumaResult is the fabric campaign table, plus the idle-heavy
// harness-performance measurement (fabric lookahead vs lockstep) on a
// 4-socket fabric.
type NumaResult struct {
	Campaign[NumaPoint]
	IdleSegment
}

// PostEvacTotal sums post-evacuation submissions (structurally zero).
func (r NumaResult) PostEvacTotal() uint64 {
	return total(r.Rows, func(p NumaPoint) uint64 { return p.PostEvac })
}

// Evacuations counts points whose victim ended Evacuated.
func (r NumaResult) Evacuations() int {
	return count(r.Rows, func(p NumaPoint) bool { return p.VictimState == "evacuated" })
}

// CheckLattice verifies the campaign's structural claims: every socket-kill
// point evacuated its victim and moved its resident set, and no
// slow-socket or interconnect point condemned one (tail pressure is not
// failure).
func (r NumaResult) CheckLattice() error {
	for _, p := range r.Rows {
		switch p.Kind {
		case "socket-kill":
			if p.VictimState != "evacuated" {
				return fmt.Errorf("numa pt%d: killed socket %d ended %q, want evacuated",
					p.Point, p.Victim, p.VictimState)
			}
			if p.Rehomed == 0 {
				return fmt.Errorf("numa pt%d: killed socket %d re-homed no chunks", p.Point, p.Victim)
			}
		default:
			if p.VictimState == "evacuating" || p.VictimState == "evacuated" {
				return fmt.Errorf("numa pt%d (%s): victim socket %d was condemned (%q) by a non-fatal fault",
					p.Point, p.Kind, p.Victim, p.VictimState)
			}
		}
	}
	return nil
}

// numaTable is the campaign's points and row. Point pt's fault kind
// cycles fastest, then the victim socket, then the onset: the kind on
// every member of the victim socket, or on its links from fabric epoch
// onset x8. Each point is a fully independent 3-socket fabric of
// 2-channel campaign pools (own seed splits for pool members, fault
// schedules and workload), so points fan across shards with
// byte-identical merged output, under the fabric load over whole spans:
// local traffic on every socket, guaranteed cross-socket requests paying
// the wire.
func numaTable(o Options) ([]Point, func(int, Point) (NumaPoint, error)) {
	const sockets = 3
	axes := func(pt int) (k, victim, onset int) {
		n := len(numaKinds)
		return pt % n, (pt / n) % sockets, 1 + 7*(pt/(n*sockets))
	}
	pts := make([]Point, o.pick(18, 9))
	for pt := range pts {
		k, victim, onset := axes(pt)
		e := fault.Entry{Socket: victim, Member: -1, Kind: numaKinds[k].kind, Onset: onset}
		if e.Kind == fault.Link {
			e.Onset *= 8
		}
		p := campaignPoint(fmt.Sprintf("numa point %d (%s %s)", pt, numaKinds[k].label, fault.Plan{e}), core.FaultedConfig(),
			sim.SplitSeed(13, fmt.Sprintf("numa/%d", pt)), sim.SplitSeed(13, fmt.Sprintf("numa-load/%d", pt)),
			20, o.DisableLookahead)
		p.Pool.Channels, p.Pool.Spares = 2, 0
		// A slow socket breeds sporadic suspicion (queueing delays bunch
		// completions); six consecutive suspect probes separate "condemn"
		// from "ride it out" while kills still evacuate immediately through
		// the degraded-position path.
		p.Fabric = numa.Config{Sockets: sockets, ChunkBytes: 64 << 10, EvacuateAfterProbes: 6}
		p.Load.RatePerSec, p.Plan, p.Reqs = 1.5e6, fault.Plan{e}, o.pick(400, 250)
		pts[pt] = p
	}
	return pts, func(pt int, p Point) (NumaPoint, error) {
		k, victim, onset := axes(pt)
		pl, out, err := p.Run(nil)
		if err != nil {
			return NumaPoint{}, err
		}
		s := pl.(*numa.Fabric).Stats()
		row := NumaPoint{
			Point:       pt,
			Kind:        numaKinds[k].label,
			Victim:      victim,
			Onset:       onset,
			Outcome:     out,
			RemoteP99:   s.LatRemote.Percentile(99),
			PostEvac:    s.PostEvacSubmissions,
			Rehomed:     s.ChunksRehomed,
			MigPages:    s.MigPages,
			MigReadMiss: s.MigReadMiss,
			Retries:     s.Ctr.Get("fab-retry-promoted"),
			VictimState: s.PerSocket[victim].State.String(),
		}
		if s.LatMigrate.Count() > 0 {
			row.MigrateP99 = s.LatMigrate.Percentile(99)
		}
		return row, nil
	}
}

// Numa is the multi-socket fabric fault campaign capping the NUMA layer:
// seeded points cycling three failure modes (socket kill, slow socket,
// interconnect degrade) across three victim sockets and fault onsets. Per
// point it tables availability, local/remote/during-migration p99 and the
// evacuation counters; the campaign claims zero acked-write loss and zero
// post-evacuation submissions at every point, every killed socket ends
// Evacuated with its chunks re-homed, and no transiently slow socket is
// ever condemned. Points fan across o.Parallel shards; the merged table is
// byte-identical at any worker count.
func Numa(o Options) (NumaResult, error) {
	var res NumaResult
	pts, row := numaTable(o)
	points, reqs := len(pts), pts[0].Reqs
	var err error
	res.Rows, err = runShards(points, o.workers(), func(i int) (NumaPoint, error) { return row(i, pts[i]) })
	if err != nil {
		return res, err
	}
	// The idle segment: a fault-free 4-socket x 2-channel fabric under an
	// idle-heavy rated load (2e3 req/s, ~64 epochs between arrivals), so
	// quiet spans sit between remote and local requests alike. Tenants
	// stay inside the DRAM caches, so requests are short hits and the idle
	// gaps between them dominate. Both fabric and pool probes run every 64
	// epochs: the defaults (8 and 4) would clip every quiet batch to a few
	// epochs, and the period is identical in both modes.
	idle := Point{
		Label: "numa idle segment",
		Pool: pool.Config{Channels: 2, DIMMsPerChannel: 1, Interleave: 4096, Member: core.FaultedConfig(),
			Workers: o.workers(), Seed: sim.SplitSeed(13, "numa/idle"), PrefillPages: -1, ProbeEvery: 64},
		Fabric: numa.Config{Sockets: 4, ChunkBytes: 64 << 10, ProbeEvery: 64},
		Load: openloop.Config{Seed: sim.SplitSeed(13, "numa-load/idle"), RatePerSec: 2e3,
			Tenants: []openloop.Tenant{{Dist: openloop.Uniform, ReadPct: 70}}},
		BlockSize: PageSize,
		Cached:    true,
		Reqs:      o.pick(1000, 100),
	}
	seg, idleFP, err := measureIdle(idle, func(pl Plane) (string, int) {
		s := pl.(*numa.Fabric).Stats()
		fp := fmt.Sprintf("reqs=%d done=%d failed=%d epochs=%d remote=%d p50=%v p99=%v remote-p99=%v",
			s.Submitted, s.Completed, s.Failed, s.Epochs, s.RemoteRequests,
			s.Lat.Percentile(50), s.Lat.Percentile(99), s.LatRemote.Percentile(99))
		for _, ps := range s.PerSocket {
			fp += fmt.Sprintf(" %s/%d", ps.State, ps.Pool.Epochs)
		}
		return fp, s.Epochs
	})
	if err != nil {
		return res, err
	}
	res.IdleSegment = seg

	o.printf("== Numa: %d-point multi-socket fabric campaign (3 sockets x 2ch, %d reqs/point) ==\n",
		points, reqs)
	var avail []float64
	for _, r := range res.Rows {
		avail = append(avail, 100*r.Availability())
		mig := "-"
		if r.MigrateP99 > 0 {
			mig = fmt.Sprint(r.MigrateP99)
		}
		o.printf("  pt%02d %-13s s%d@%-2d avail=%6.2f%% p99=%-10v remote-p99=%-10v mig-p99=%-10s "+
			"failed=%-3d retries=%-2d rehomed=%-3d mig=%d/%d %-10s lost=%d postevac=%d\n",
			r.Point, r.Kind, r.Victim, r.Onset, 100*r.Availability(), r.Lat.Percentile(99), r.RemoteP99, mig,
			r.Failed, r.Retries, r.Rehomed, r.MigPages, r.MigReadMiss, r.VictimState,
			r.WritesLost(), r.PostEvac)
	}
	o.printf("  availability %s  min %.2f%%\n", report.Sparkline(avail), 100*res.MinAvailability())
	o.printf("  acked writes lost: %d  post-evacuation submissions: %d  evacuations: %d/%d points\n",
		res.AckedLostTotal(), res.PostEvacTotal(), res.Evacuations(), points)
	o.printf("  idle-heavy 4-socket rated segment: lockstep and lookahead outputs identical\n    %s\n", idleFP)
	return res, nil
}
