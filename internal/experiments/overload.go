package experiments

import (
	"fmt"

	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/report"
	"nvdimmc/internal/sim"
)

// The overload campaign caps the request plane: a seeded sweep of offered
// load from 0.5x to 4x of the pool's measured capacity, crossed with the
// faultpool failure schedules, with and without deadlines and shedding. The
// claim under test is graceful degradation: with deadline-aware admission
// shedding, goodput (in-deadline completions per second) at 4x offered load
// stays within 10% of measured capacity — the plane sheds the infeasible
// excess typed at admission instead of queueing everything into uselessly
// late completions — while conservation (submitted = completed + shed +
// expired + typed-failed) holds at every point and no acked write is lost.

// overloadModes are the three front-end configurations each load level runs
// under: the unbounded PR-4 behavior ("block", no deadlines — late is
// invisible), deadlines without shedding ("deadline" — late work expires
// typed, but only after burning queue residency), and deadlines with
// deadline-aware admission shedding ("shed" — infeasible work is refused at
// the door).
var overloadModes = []string{"block", "deadline", "shed"}

// overloadDeadlineEpochs sizes each request's completion budget in epochs
// (tREFI): generous against the single-op service profile — the cold path
// (miss, dirty eviction, NAND program before the read) runs near 1 ms, and
// retries back off up to 8 epochs — hard against a 4x backlog, which queues
// multiples of this budget.
const overloadDeadlineEpochs = 256

// OverloadPoint is one campaign point: a 3-channel + 1-spare pool under one
// (load multiple, mode, fault) combination.
type OverloadPoint struct {
	Point int
	LoadX float64 // offered load as a multiple of measured capacity
	Mode  string  // block | deadline | shed
	Fault string  // none | program | dietimeout

	OfferedOps float64 // offered arrival rate, ops/sec
	// GoodputOps is in-deadline completions/sec over the post-warmup service
	// window: the first quarter of the completion span is excluded, covering
	// the cold-start transient while the per-channel service-interval
	// estimates converge from zero (admission is deliberately permissive on
	// ignorance, so early arrivals are admitted into a backlog the estimator
	// cannot yet price). Capacity is measured over the same window shape, so
	// the ratio compares steady states.
	GoodputOps float64
	// GoodputRatio is GoodputOps over the calibration capacity; the 4x shed
	// acceptance bound is >= 0.9. For the no-deadline "block" mode every
	// completion counts as good — late is invisible there by construction.
	GoodputRatio float64

	// Outcome's CompletedLate counts completions past their deadline
	// (counted in Completed, not in goodput).
	Outcome
	MissP99  sim.Duration // lateness overshoot p99 of late completions (0: none)
	MissP999 sim.Duration
	HeldHW   int // deepest per-channel admission-held backlog
}

// OverloadResult is the saturation campaign table.
type OverloadResult struct {
	// CapacityOps is the measured saturating throughput of the campaign pool
	// shape (ops/sec), from the serial calibration run every point's offered
	// rate is a multiple of.
	CapacityOps float64
	// DeadlineBudget is the per-request completion budget the deadline and
	// shed modes stamp.
	DeadlineBudget sim.Duration
	Campaign[OverloadPoint]
}

// maxLoad returns the campaign's highest offered-load multiple.
func (r OverloadResult) maxLoad() float64 {
	m := 0.0
	for _, p := range r.Rows {
		if p.LoadX > m {
			m = p.LoadX
		}
	}
	return m
}

// ShedGoodputRatio returns the goodput/capacity ratio of the fault-free
// shed-mode point at the highest load level — the campaign's headline
// graceful-degradation bound (acceptance: >= 0.9). The bound is scoped to
// the fault-free point because capacity is the healthy pool's: a pool with
// a persistently failing member cannot deliver healthy-capacity goodput at
// any admission policy, and fault-mode degradation is the faultpool
// campaign's subject. Faulted shed points are instead held to the relative
// bound below.
func (r OverloadResult) ShedGoodputRatio() float64 {
	maxLoad := r.maxLoad()
	for _, p := range r.Rows {
		if p.Mode == "shed" && p.Fault == "none" && p.LoadX == maxLoad {
			return p.GoodputRatio
		}
	}
	return 0
}

// ShedBeatsQueueing reports whether, at the highest load level, the
// shed-mode goodput is at least the deadline-only (queue-then-expire)
// goodput for every fault schedule — the relative graceful-degradation
// claim that holds even where absolute capacity does not: refusing
// infeasible work at the door never yields less in-deadline throughput
// than queueing it into expiry.
func (r OverloadResult) ShedBeatsQueueing() error {
	maxLoad := r.maxLoad()
	byFault := map[string]map[string]float64{}
	for _, p := range r.Rows {
		if p.LoadX != maxLoad {
			continue
		}
		if byFault[p.Fault] == nil {
			byFault[p.Fault] = map[string]float64{}
		}
		byFault[p.Fault][p.Mode] = p.GoodputOps
	}
	for fault, modes := range byFault {
		if modes["shed"] < modes["deadline"] {
			return fmt.Errorf("overload: at %.0fx under %q faults, shed goodput %.0f ops/s below deadline-only %.0f ops/s",
				maxLoad, fault, modes["shed"], modes["deadline"])
		}
	}
	return nil
}

// victimPlans is the overload and qos campaigns' fault axis: the empty
// plan, then each kind on logical member 1 from its site's 40th visit.
func victimPlans(kinds ...fault.Kind) []fault.Plan {
	plans := []fault.Plan{nil}
	for _, k := range kinds {
		plans = append(plans, fault.Plan{{Socket: -1, Member: 1, Kind: k, Onset: 40}})
	}
	return plans
}

// overloadGoodput computes in-deadline completions per second over the
// post-warmup service window: the first quarter of the in-deadline
// completion span is excluded. That quarter holds the cold-start transient
// — the admission estimator has no service-interval signal until channels
// have completed work across two epochs, so the earliest arrivals are
// always admitted and, under overload, complete late. Steady-state behavior
// is the claim under test; the warmup cut makes every point (and the
// capacity reference, measured the same way) a steady-state rate. The span
// is framed by the completions goodput counts — in-deadline ones — because
// a late straggler behind a die timeout can land hundreds of milliseconds
// after the bulk, and a max-based span would push the whole measurement
// window past every countable completion.
func overloadGoodput(recs []pool.Completion) float64 {
	var first, last sim.Time
	seen := false
	for _, c := range recs {
		if c.Outcome != pool.OutcomeCompleted || c.Late {
			continue
		}
		if !seen || c.At < first {
			first = c.At
		}
		if !seen || c.At > last {
			last = c.At
		}
		seen = true
	}
	span := last.Sub(first)
	if !seen || span <= 0 {
		return 0
	}
	cut := first.Add(span / 4)
	good := 0
	for _, c := range recs {
		if c.Outcome == pool.OutcomeCompleted && !c.Late && c.At >= cut {
			good++
		}
	}
	window := (span - span/4).Seconds()
	if window <= 0 {
		return 0
	}
	return float64(good) / window
}

// overloadTable is the campaign's points and row at the calibrated
// capacity: offered loads crossed with front-end modes and fault plans,
// the load fastest. Point pt is a fully independent pool (own seed splits
// for members, faults and workload), so points fan across shards with
// byte-identical merged output: the campaign shape over the overload
// member, one mixed tenant over the full capacity (evictions map pages
// onto media, so faulted points exercise real NAND — see
// core.OverloadConfig) at its multiple of capacity, with its mode's
// admission and deadline. Points must reach steady state: the admission
// estimator converges over the first few milliseconds (cold NAND paths,
// cache hit reservoir), and the goodput claim is about what comes after.
// 2000 requests put the 4x point's arrival span near 6x the convergence
// transient. Extended conservation — submitted = completed + shed +
// expired + typed-failed — is audited at every point, under every policy
// and fault.
func overloadTable(o Options, capacity float64) ([]Point, func(int, Point) (OverloadPoint, error)) {
	loads, faults := []float64{0.5, 1, 2, 4}, victimPlans(fault.Program, fault.DieTimeout)
	if o.Quick {
		loads, faults = []float64{1, 4}, faults[:2]
	}
	axes := func(pt int) (float64, string) {
		return loads[pt%len(loads)], overloadModes[(pt/len(loads))%len(overloadModes)]
	}
	pts := make([]Point, len(loads)*len(overloadModes)*len(faults))
	for pt := range pts {
		loadX, mode := axes(pt)
		plan := faults[pt/(len(loads)*len(overloadModes))]
		p := campaignPoint(fmt.Sprintf("overload point %d (%.1fx %s %s)", pt, loadX, mode, plan), core.OverloadConfig(),
			sim.SplitSeed(17, fmt.Sprintf("overload/%d", pt)), sim.SplitSeed(17, fmt.Sprintf("overload-load/%d", pt)),
			70, o.DisableLookahead)
		if mode != "block" {
			p.Load.Deadline = overloadDeadlineEpochs * core.OverloadConfig().TREFI
		}
		if mode == "shed" {
			p.Pool.Admission = pool.AdmitDeadlineAware
		}
		p.Load.RatePerSec, p.Plan, p.Reqs = loadX*capacity, plan, o.pick(2000, 1500)
		pts[pt] = p
	}
	return pts, func(pt int, p Point) (OverloadPoint, error) {
		var recs []pool.Completion
		pl, out, err := p.Run(func(c pool.Completion) { recs = append(recs, c) })
		if err != nil {
			return OverloadPoint{}, err
		}
		row := OverloadPoint{Point: pt, Fault: faultName(p.Plan), OfferedOps: p.Load.RatePerSec, Outcome: out}
		row.LoadX, row.Mode = axes(pt)
		s := pl.(*pool.Pool).Stats()
		if s.LatMiss.Count() > 0 {
			row.MissP99 = s.LatMiss.Percentile(99)
			row.MissP999 = s.LatMiss.Percentile(99.9)
		}
		for _, ch := range s.PerChannel {
			row.HeldHW = max(row.HeldHW, ch.HeldHW)
		}
		row.GoodputOps = overloadGoodput(recs) // Late==0 under "block": all good
		if capacity > 0 {
			row.GoodputRatio = row.GoodputOps / capacity
		}
		return row, nil
	}
}

// Overload is the saturation campaign capping the request plane: measured
// capacity, then offered loads of 0.5x–4x crossed with front-end modes
// (block / deadline / deadline-aware shed) and fault schedules (none /
// persistent program failure / probabilistic die timeouts), tabling goodput,
// shed and expired counts, the deadline-miss tail and the held high-water
// mark. Points fan across o.Parallel shards; calibration is one serial run;
// the merged table is byte-identical at any worker count.
func Overload(o Options) (OverloadResult, error) {
	var res OverloadResult
	reqs := o.pick(2000, 1500)
	// One serial calibration run, the same shape and seed at any
	// o.Parallel: every point's offered rate derives from it and is
	// written into the point before sharding, so each row is a function
	// of its point's value alone.
	cal := campaignPoint("overload calibration", core.OverloadConfig(),
		sim.SplitSeed(17, "overload/cal"), sim.SplitSeed(17, "overload-load/cal"), 70, o.DisableLookahead)
	cal.Reqs = reqs
	capacity, err := calibrate(cal)
	if err != nil {
		return res, err
	}
	res.CapacityOps = capacity
	res.DeadlineBudget = overloadDeadlineEpochs * core.OverloadConfig().TREFI
	pts, row := overloadTable(o, capacity)
	points := len(pts)
	res.Rows, err = runShards(points, o.workers(), func(i int) (OverloadPoint, error) { return row(i, pts[i]) })
	if err != nil {
		return res, err
	}

	o.printf("== Overload: %d-point saturation campaign (3ch + 1 spare, %d reqs/point) ==\n", points, reqs)
	o.printf("  measured capacity %.0f ops/s, deadline budget %v (%d epochs)\n",
		capacity, res.DeadlineBudget, overloadDeadlineEpochs)
	var ratios []float64
	for _, r := range res.Rows {
		ratios = append(ratios, r.GoodputRatio)
		miss := "-"
		if r.MissP99 > 0 {
			miss = fmt.Sprintf("%v/%v", r.MissP99, r.MissP999)
		}
		o.printf("  pt%02d %.1fx %-8s %-10s goodput=%8.0f ops/s (%.2fx cap) done=%-4d late=%-3d shed=%-4d expired=%-4d failed=%-3d "+
			"p99=%-10v miss-p99/999=%-21s heldHW=%-4d lost=%d\n",
			r.Point, r.LoadX, r.Mode, r.Fault, r.GoodputOps, r.GoodputRatio,
			r.Completed, r.CompletedLate, r.Shed, r.Expired, r.Failed, r.Lat.Percentile(99), miss, r.HeldHW, r.WritesLost())
	}
	o.printf("  goodput/capacity %s\n", report.Sparkline(ratios))
	o.printf("  4x deadline-aware goodput (fault-free): %.2fx capacity  shed: %d  expired: %d  acked writes lost: %d\n",
		res.ShedGoodputRatio(), res.ShedTotal(), res.ExpiredTotal(), res.AckedLostTotal())
	return res, nil
}
