package experiments

import (
	"fmt"
	"time"

	"nvdimmc/internal/fault"
	"nvdimmc/internal/numa"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/report"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// numaKinds are the fabric campaign's three failure modes, cycled across
// points: a socket kill (persistent program failures on every member of the
// victim socket — quarantines, degraded positions, evacuation and
// cross-socket failover), a slow socket (probabilistic die timeouts on the
// victim's members — latency tails, no errors, the lattice must NOT
// evacuate), and an interconnect degrade (the victim's links lose latency
// and bandwidth mid-run — remote tails inflate, service continues).
var numaKinds = []string{"socket-kill", "slow-socket", "xconn-degrade"}

// NumaPoint is one seeded fabric campaign point: a 3-socket fabric with one
// victim socket and a socket-affine open-loop load with cross-socket
// roamers.
type NumaPoint struct {
	Point  int
	Kind   string
	Victim int // victim socket
	Onset  int // fault onset (site occurrence, or link-fault epoch x8)

	Availability float64 // completed / submitted
	P99          sim.Duration
	RemoteP99    sim.Duration // p99 of completions that crossed the interconnect
	MigrateP99   sim.Duration // p99 of foreground completions during migration (0: none)

	Failed      uint64
	AckedLost   uint64 // writes admitted but neither acked nor typed-terminal (must be 0)
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
	Rows []NumaPoint
	IdleSegment
}

// Points returns the campaign size.
func (r NumaResult) Points() int { return len(r.Rows) }

// AckedLostTotal sums acked-write loss across the campaign (must be zero).
func (r NumaResult) AckedLostTotal() uint64 {
	var t uint64
	for _, p := range r.Rows {
		t += p.AckedLost
	}
	return t
}

// PostEvacTotal sums post-evacuation submissions (structurally zero).
func (r NumaResult) PostEvacTotal() uint64 {
	var t uint64
	for _, p := range r.Rows {
		t += p.PostEvac
	}
	return t
}

// MinAvailability returns the worst per-point availability.
func (r NumaResult) MinAvailability() float64 {
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

// Evacuations counts points whose victim ended Evacuated.
func (r NumaResult) Evacuations() int {
	n := 0
	for _, p := range r.Rows {
		if p.VictimState == "evacuated" {
			n++
		}
	}
	return n
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

// numaPoint runs one campaign point: a fully independent fabric (own seed
// splits for pool members, fault schedules and workload), so points fan
// across shards with byte-identical merged output.
func numaPoint(o Options, pt, reqs int) (NumaPoint, error) {
	kind := numaKinds[pt%len(numaKinds)]
	const sockets = 3
	victim := (pt / len(numaKinds)) % sockets
	onset := 1 + 7*(pt/(len(numaKinds)*sockets))

	// The fabric sets each socket's seed, workers and lookahead switch.
	pc := campaignPool(faultMemberCfg(), 0, false)
	pc.Channels, pc.Spares = 2, 0
	cfg := numa.Config{
		Sockets:    sockets,
		Pool:       pc,
		ChunkBytes: 64 << 10,
		// A slow socket breeds sporadic suspicion (queueing delays bunch
		// completions); six consecutive suspect probes separate "condemn"
		// from "ride it out" while kills still evacuate immediately through
		// the degraded-position path.
		EvacuateAfterProbes: 6,
		Workers:             1, // points are the parallel axis
		Seed:                sim.SplitSeed(13, fmt.Sprintf("numa/%d", pt)),
		DisableLookahead:    o.DisableLookahead,
	}
	switch kind {
	case "socket-kill":
		cfg.ArmFaults = func(socket, member int, g *fault.Registry) {
			if socket == victim {
				g.OnOccurrence(fault.NANDProgramFail, uint64(onset)).Times(1 << 30)
			}
		}
	case "slow-socket":
		// x12 keeps a 100 us NAND program under the driver's 1.5 ms CP ack
		// deadline: the socket gets slow (latency tails, probe suspicion),
		// not broken (no transport errors) — the lattice must ride it out.
		cfg.ArmFaults = func(socket, member int, g *fault.Registry) {
			if socket == victim {
				g.Prob(fault.NANDDieTimeout, 0.25).Param(12)
			}
		}
	case "xconn-degrade":
		cfg.LinkFaults = []numa.LinkFault{
			{Epoch: onset * 8, Socket: victim, LatFactor: 20, BWDivide: 16},
		}
	}
	f, err := numa.New(cfg)
	if err != nil {
		return NumaPoint{}, fmt.Errorf("numa point %d: %w", pt, err)
	}

	// Socket-affine tenants plus a roamer spanning the fabric: local traffic
	// on every socket, guaranteed cross-socket requests paying the wire.
	ts := make([]openloop.Tenant, 0, sockets+1)
	for s := 0; s < sockets; s++ {
		ts = append(ts, openloop.Tenant{
			Name: fmt.Sprintf("s%d", s), Socket: s, Dist: openloop.Uniform,
			ReadPct: 20, Weight: 2, Footprint: f.Span(), Offset: int64(s) * f.Span(),
		})
	}
	ts = append(ts, openloop.Tenant{
		Name: "roam", Socket: 0, Dist: openloop.Uniform,
		ReadPct: 20, Weight: 1, Footprint: f.Capacity(),
	})
	gen, err := openloop.New(openloop.Config{
		Seed:       sim.SplitSeed(13, fmt.Sprintf("numa-load/%d", pt)),
		RatePerSec: 1.5e6,
		Tenants:    ts,
	})
	if err != nil {
		return NumaPoint{}, err
	}
	if err := pool.RunOpenLoop(f, gen, reqs, nil); err != nil {
		return NumaPoint{}, fmt.Errorf("numa point %d (%s s%d): %w", pt, kind, victim, err)
	}
	if err := f.CheckHealth(); err != nil {
		return NumaPoint{}, fmt.Errorf("numa point %d (%s s%d): %w", pt, kind, victim, err)
	}
	s := f.Stats()
	row := NumaPoint{
		Point:       pt,
		Kind:        kind,
		Victim:      victim,
		Onset:       onset,
		P99:         s.Lat.Percentile(99),
		RemoteP99:   s.LatRemote.Percentile(99),
		Failed:      s.Failed,
		AckedLost:   s.WritesLost(),
		PostEvac:    s.PostEvacSubmissions,
		Rehomed:     s.ChunksRehomed,
		MigPages:    s.MigPages,
		MigReadMiss: s.MigReadMiss,
		Retries:     s.Ctr.Get("fab-retry-promoted"),
		VictimState: s.PerSocket[victim].State.String(),
	}
	if s.Submitted > 0 {
		row.Availability = float64(s.Completed) / float64(s.Submitted)
	}
	if s.LatMigrate.Count() > 0 {
		row.MigrateP99 = s.LatMigrate.Percentile(99)
	}
	return row, nil
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
	points := o.pick(18, 9)
	reqs := o.pick(400, 250)

	rows, err := runShards(points, o.workers(), func(pt int) (NumaPoint, error) {
		return numaPoint(o, pt, reqs)
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	idleReqs := o.pick(1000, 100)
	seg, idleFP, err := measureIdle("numa", idleReqs, func(lockstep bool) (string, int, float64, error) {
		return numaIdleRun(o, idleReqs, lockstep)
	})
	if err != nil {
		return res, err
	}
	res.IdleSegment = seg

	o.printf("== Numa: %d-point multi-socket fabric campaign (3 sockets x 2ch, %d reqs/point) ==\n",
		points, reqs)
	var avail []float64
	for _, r := range res.Rows {
		avail = append(avail, 100*r.Availability)
		mig := "-"
		if r.MigrateP99 > 0 {
			mig = fmt.Sprint(r.MigrateP99)
		}
		o.printf("  pt%02d %-13s s%d@%-2d avail=%6.2f%% p99=%-10v remote-p99=%-10v mig-p99=%-10s "+
			"failed=%-3d retries=%-2d rehomed=%-3d mig=%d/%d %-10s lost=%d postevac=%d\n",
			r.Point, r.Kind, r.Victim, r.Onset, 100*r.Availability, r.P99, r.RemoteP99, mig,
			r.Failed, r.Retries, r.Rehomed, r.MigPages, r.MigReadMiss, r.VictimState,
			r.AckedLost, r.PostEvac)
	}
	o.printf("  availability %s  min %.2f%%\n", report.Sparkline(avail), 100*res.MinAvailability())
	o.printf("  acked writes lost: %d  post-evacuation submissions: %d  evacuations: %d/%d points\n",
		res.AckedLostTotal(), res.PostEvacTotal(), res.Evacuations(), points)
	o.printf("  idle-heavy 4-socket rated segment: lockstep and lookahead outputs identical\n    %s\n", idleFP)
	return res, nil
}

// numaIdleRun is the fabric's harness-performance segment: a fault-free
// 4-socket x 2-channel fabric under an idle-heavy rated load (2e3 req/s,
// ~64 epochs between arrivals), so quiet spans sit between remote and
// local requests alike. Both fabric and pool probes run every 64 epochs:
// the defaults (8 and 4) would clip every quiet batch to a few epochs, and
// the period is identical in both modes. It returns the run's deterministic
// fingerprint, its fabric epoch count and the host wall time of the run
// phase.
func numaIdleRun(o Options, reqs int, lockstep bool) (string, int, float64, error) {
	const sockets = 4
	f, err := numa.New(numa.Config{
		Sockets: sockets,
		Pool: pool.Config{
			Channels:        2,
			DIMMsPerChannel: 1,
			Interleave:      4096,
			Member:          faultMemberCfg(),
			PrefillPages:    -1,
			ProbeEvery:      64,
		},
		ChunkBytes:       64 << 10,
		ProbeEvery:       64,
		Workers:          o.workers(),
		Seed:             sim.SplitSeed(13, "numa/idle"),
		DisableLookahead: lockstep,
	})
	if err != nil {
		return "", 0, 0, fmt.Errorf("numa idle segment: %w", err)
	}
	// Tenants stay inside the DRAM caches, so requests are short hits and
	// the idle gaps between them dominate: one per socket over its own
	// cached footprint, plus a roamer homed on socket 0 that addresses the
	// last socket's.
	ts := make([]openloop.Tenant, 0, sockets+1)
	for s := 0; s < sockets; s++ {
		ts = append(ts, openloop.Tenant{
			Name: fmt.Sprintf("s%d", s), Socket: s, Dist: openloop.Uniform, ReadPct: 70, Weight: 2,
			Footprint: f.Socket(s).CachedFootprint(), Offset: int64(s) * f.Span(),
		})
	}
	ts = append(ts, openloop.Tenant{
		Name: "roam", Socket: 0, Dist: openloop.Uniform, ReadPct: 70, Weight: 1,
		Footprint: f.Socket(sockets - 1).CachedFootprint(), Offset: int64(sockets-1) * f.Span(),
	})
	gen, err := openloop.New(openloop.Config{
		Seed:       sim.SplitSeed(13, "numa-load/idle"),
		RatePerSec: 2e3,
		Tenants:    ts,
	})
	if err != nil {
		return "", 0, 0, err
	}
	start := time.Now()
	if err := pool.RunOpenLoop(f, gen, reqs, nil); err != nil {
		return "", 0, 0, fmt.Errorf("numa idle segment: %w", err)
	}
	wallMS := float64(time.Since(start).Microseconds()) / 1000
	if err := f.CheckHealth(); err != nil {
		return "", 0, 0, fmt.Errorf("numa idle segment: %w", err)
	}
	s := f.Stats()
	fp := fmt.Sprintf("reqs=%d done=%d failed=%d epochs=%d remote=%d p50=%v p99=%v remote-p99=%v",
		s.Submitted, s.Completed, s.Failed, s.Epochs, s.RemoteRequests,
		s.Lat.Percentile(50), s.Lat.Percentile(99), s.LatRemote.Percentile(99))
	for _, ps := range s.PerSocket {
		fp += fmt.Sprintf(" %s/%d", ps.State, ps.Pool.Epochs)
	}
	return fp, s.Epochs, wallMS, nil
}
