package experiments

import (
	"fmt"

	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// The QoS campaign caps the multi-tenant request plane: a seeded
// noisy-neighbor mix — one zipfian-hot tenant offering 4x its token-bucket
// rate (1.6x the pool's measured mix capacity by itself) against three
// light uniform tenants with p99 SLOs — run with per-tenant isolation on
// and off, repeated under the faultpool failure schedules. The claim under
// test is performance isolation: with isolation on (token-bucket admission
// policing plus deficit-round-robin dispatch), every light tenant meets its
// p99 SLO while the hot tenant is throttled down to its contracted bucket
// rate; with isolation off the very same arrival stream drives at least one
// light tenant past its SLO. Conservation (per-tenant and pool-wide,
// including the throttled outcome) holds at every point, and the whole
// table is a pure function of the seeds — byte-identical serial, sharded,
// and under the lookahead scheduler.
//
// The mix spans two service regimes, so the campaign calibrates both: the
// hot tenant's zipfian working set largely hits the member caches (fast),
// while the lights' uniform accesses over a near-capacity footprint are
// miss-dominated (a cold miss costs near a millisecond). One capacity
// number cannot price both — the hot tenant's offered overload is a
// multiple of the *mix* capacity, and the lights' rates are a fraction of
// the *uniform* capacity so their load is feasible once isolation holds.

// qosHotX is the hot tenant's offered rate as a multiple of the measured
// mix capacity: 1.6x — enough overload that, unpoliced, its backlog queues
// everyone.
const qosHotX = 1.6

// qosBucketDiv divides the hot tenant's offered rate to size its token
// bucket: offered 4x over contract is the starvation-regression shape.
const qosBucketDiv = 4

// qosLightX is each light tenant's offered rate as a fraction of the
// measured uniform capacity: 3 x 0.1 = 0.3x their regime's capacity, light
// enough that the SLO is clearly feasible when the hot tenant is policed.
const qosLightX = 0.1

// qosSLOEpochs sizes the light tenants' p99 SLO in epochs (tREFI). The
// members run the near-capacity faultpool shape where a cold miss (dirty
// eviction, NAND program, then the read) costs near a millisecond, so the
// SLO must clear that service floor with queueing headroom — the isolated
// light tails land near 1.2 ms — while staying below the waits an unpoliced
// 2x-capacity backlog builds (2.2 ms and up, bounded only by admission
// backpressure). 200 epochs (~1.56 ms) splits those regimes with >25%
// margin each way.
const qosSLOEpochs = 200

// QoSTenantRow is one tenant's outcome at one campaign point.
type QoSTenantRow struct {
	Name       string
	OfferedOps float64 // this tenant's share of the offered arrival rate
	BucketOps  float64 // token-bucket rate (0: unpoliced)
	Completed  uint64
	Throttled  uint64
	Shed       uint64
	Expired    uint64
	Failed     uint64
	// GoodputOps is the tenant's completions per second over its completion
	// span.
	GoodputOps float64
	P99        sim.Duration
	P999       sim.Duration
	SLO        sim.Duration // p99 target (0: untracked)
	Violated   bool         // p99 over SLO at end of run
}

// QoSPoint is one campaign point: the noisy-neighbor mix under one
// (isolation, fault) combination. Tenants[0] is the hot tenant.
type QoSPoint struct {
	Point     int
	Isolation bool
	Fault     string // none | program | dietimeout

	OfferedOps float64
	// HotRatio is the hot tenant's goodput over its bucket rate — the
	// throttle-to-contract observable (only meaningful with isolation on).
	HotRatio  float64
	AckedLost uint64 // writes neither acked nor typed-terminal (must be 0)
	Tenants   []QoSTenantRow
}

// QoSResult is the noisy-neighbor campaign table.
type QoSResult struct {
	// CapacityOps is the measured saturating throughput of the campaign
	// pool shape (ops/sec), from the serial calibration run every point's
	// offered rate derives from.
	CapacityOps float64
	// UniformOps is the measured saturating throughput of the same pool
	// under a uniform (miss-dominated) probe — the light tenants' service
	// regime; their offered rates are a fraction of it.
	UniformOps float64
	// SLOTarget is the light tenants' p99 target.
	SLOTarget sim.Duration
	Rows      []QoSPoint
}

// Points returns the campaign size.
func (r QoSResult) Points() int { return len(r.Rows) }

// Find returns the campaign point for one (isolation, fault) combination,
// or nil.
func (r QoSResult) Find(isolation bool, faultKind string) *QoSPoint {
	for i := range r.Rows {
		if r.Rows[i].Isolation == isolation && r.Rows[i].Fault == faultKind {
			return &r.Rows[i]
		}
	}
	return nil
}

// LightViolations counts light tenants over their SLO at one point.
func (p *QoSPoint) LightViolations() int {
	n := 0
	for _, t := range p.Tenants[1:] {
		if t.Violated {
			n++
		}
	}
	return n
}

// HotThrottled returns the hot tenant's throttle count at one point.
func (p *QoSPoint) HotThrottled() uint64 { return p.Tenants[0].Throttled }

// WorstLightP99 returns the worst light-tenant p99 at one point.
func (p *QoSPoint) WorstLightP99() sim.Duration {
	var w sim.Duration
	for _, t := range p.Tenants[1:] {
		if t.P99 > w {
			w = t.P99
		}
	}
	return w
}

// AckedLostTotal sums acked-write loss across the campaign (must be zero).
func (r QoSResult) AckedLostTotal() uint64 {
	var t uint64
	for _, p := range r.Rows {
		t += p.AckedLost
	}
	return t
}

// qosFootSplit carves the pool footprint: the hot zipfian tenant works the
// first half, the lights split the rest, page-aligned.
func qosFootSplit(foot int64) (hotFoot, lightFoot int64) {
	hotFoot = (foot / 2) &^ 4095
	lightFoot = ((foot - hotFoot) / 3) &^ 4095
	return
}

// qosCalTenants is the calibration blend: the campaign's footprints and
// distributions at the nominal 12:1:1:1 traffic split (the hot tenant's
// ~80% share of the no-isolation arrival stream), no contracts — capacity
// is measured with QoS disarmed.
func qosCalTenants(foot int64) []openloop.Tenant {
	hotFoot, lightFoot := qosFootSplit(foot)
	ts := []openloop.Tenant{{
		Name: "hot", Dist: openloop.Zipfian, Weight: 12, ReadPct: 80, Footprint: hotFoot,
	}}
	for i := 0; i < 3; i++ {
		ts = append(ts, openloop.Tenant{
			Name: fmt.Sprintf("light%d", i), Dist: openloop.Uniform, Weight: 1, ReadPct: 80,
			Footprint: lightFoot, Offset: hotFoot + int64(i)*lightFoot,
		})
	}
	return ts
}

// qosTenants builds the campaign mix with the contracts armed. Arrival
// weights are the tenants' absolute offered rates (openloop normalizes, so
// weight ratios ARE the traffic split): the hot tenant at qosHotX x mix
// capacity with a token bucket at a quarter of that, each light at qosLightX
// x uniform capacity with a p99 SLO. DRR service weights stay equal — the
// fairness mechanism, not the arrival mix, is the campaign subject.
func qosTenants(foot int64, mixCap, uniCap float64, slo sim.Duration) []openloop.Tenant {
	hotFoot, lightFoot := qosFootSplit(foot)
	hotRate := qosHotX * mixCap
	lightRate := qosLightX * uniCap
	ts := []openloop.Tenant{{
		Name: "hot", Dist: openloop.Zipfian, Weight: hotRate, ReadPct: 80,
		Footprint:   hotFoot,
		LimitPerSec: hotRate / qosBucketDiv, Burst: 32,
	}}
	for i := 0; i < 3; i++ {
		ts = append(ts, openloop.Tenant{
			Name: fmt.Sprintf("light%d", i), Dist: openloop.Uniform, Weight: lightRate, ReadPct: 80,
			Footprint: lightFoot, Offset: hotFoot + int64(i)*lightFoot,
			SLOP99: slo,
		})
	}
	return ts
}

// qosPool is one campaign pool: the overload campaign's pool with the
// tenant QoS contracts armed or disarmed and the requested fault schedule
// on logical member 1. The off arm drops enforcement but keeps per-tenant
// tracking (QoSFromTenants carries the isolation switch), so both arms
// report the same observables.
func qosPool(seed uint64, tenants []openloop.Tenant, isolation bool, faultKind string, lockstep bool) pool.Config {
	cfg := campaignPool(overloadMemberCfg(), seed, lockstep)
	cfg.QoS = pool.QoSFromTenants(tenants, isolation)
	cfg.ArmFaults = armFault(faultKind, 1, 40)
	return cfg
}

// qosCalibrateOne measures one saturating capacity number (calibrate) with
// the QoS contracts disarmed, one serial run per probe shape.
func qosCalibrateOne(label string, reqs int, lockstep bool,
	shape func(foot int64) []openloop.Tenant) (float64, error) {
	capacity, err := calibrate(qosPool(sim.SplitSeed(23, "qos/cal/"+label), nil, false, "none", lockstep), reqs,
		func(foot int64) openloop.Config {
			return openloop.Config{Seed: sim.SplitSeed(23, "qos-load/cal/"+label), Tenants: shape(foot)}
		})
	if err != nil {
		return 0, fmt.Errorf("qos %s calibration: %w", label, err)
	}
	return capacity, nil
}

// qosCalibrate measures the campaign's two capacity references: the
// hot-dominated mix blend (the hot tenant's overload multiple) and a pure
// uniform probe (the lights' miss-dominated regime). Calibrating on the mix
// matters for the hot side — its zipfian working set is far more
// cache-friendly than a uniform probe, so a uniform capacity number would
// not overload the mix at any modest multiple — while the lights must be
// priced against the uniform number or their "light" load would itself
// exceed the miss-service rate.
func qosCalibrate(reqs int, lockstep bool) (mixCap, uniCap float64, err error) {
	mixCap, err = qosCalibrateOne("mix", reqs, lockstep, qosCalTenants)
	if err != nil {
		return 0, 0, err
	}
	uniCap, err = qosCalibrateOne("uniform", reqs, lockstep, func(foot int64) []openloop.Tenant {
		return []openloop.Tenant{
			{Name: "uni", Dist: openloop.Uniform, ReadPct: 80, Footprint: foot},
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return mixCap, uniCap, nil
}

// qosPoint runs one campaign point. Each point is a fully independent pool
// (own seed splits for members, faults and workload), so points fan across
// shards with byte-identical merged output.
func qosPoint(pt, reqs int, faults []string, mixCap, uniCap float64, slo sim.Duration, lockstep bool) (QoSPoint, error) {
	isolation := pt%2 == 0
	kind := faults[pt/2]

	// Tenant shapes need the pool footprint, which needs the pool; build a
	// throwaway config first to size footprints, then the real pool with the
	// contracts armed. Footprint depends only on (member shape, seed), so
	// the two agree.
	seed := sim.SplitSeed(23, fmt.Sprintf("qos/%d", pt))
	probe, err := pool.New(qosPool(seed, nil, false, "none", lockstep))
	if err != nil {
		return QoSPoint{}, fmt.Errorf("qos point %d: %w", pt, err)
	}
	tenants := qosTenants(campaignFootprint(probe), mixCap, uniCap, slo)
	// Tenant weights are absolute offered rates; the arrival clock runs at
	// their sum.
	offered := 0.0
	for _, t := range tenants {
		offered += t.Weight
	}
	p, err := pool.New(qosPool(seed, tenants, isolation, kind, lockstep))
	if err != nil {
		return QoSPoint{}, fmt.Errorf("qos point %d: %w", pt, err)
	}
	gen, err := openloop.New(openloop.Config{
		Seed:       sim.SplitSeed(23, fmt.Sprintf("qos-load/%d", pt)),
		RatePerSec: offered,
		Tenants:    tenants,
	})
	if err != nil {
		return QoSPoint{}, err
	}
	if err := pool.RunOpenLoop(p, gen, reqs, nil); err != nil {
		return QoSPoint{}, fmt.Errorf("qos point %d (iso=%v %s): %w", pt, isolation, kind, err)
	}
	// Conservation — pool-wide and per-tenant, including throttled —
	// asserted at every point, under every fault schedule.
	if err := p.CheckHealth(); err != nil {
		return QoSPoint{}, fmt.Errorf("qos point %d (iso=%v %s): %w", pt, isolation, kind, err)
	}
	s := p.Stats()
	row := QoSPoint{
		Point:      pt,
		Isolation:  isolation,
		Fault:      kind,
		OfferedOps: offered,
		AckedLost:  s.WritesLost(),
	}
	weightSum := 0.0
	for _, t := range tenants {
		weightSum += t.Weight
	}
	for i, ts := range s.PerTenant {
		tr := QoSTenantRow{
			Name:       ts.Name,
			OfferedOps: offered * tenants[i].Weight / weightSum,
			BucketOps:  ts.RatePerSec,
			Completed:  ts.Completed,
			Throttled:  ts.Throttled,
			Shed:       ts.Shed,
			Expired:    ts.Expired,
			Failed:     ts.Failed,
			P99:        ts.Lat.Percentile(99),
			P999:       ts.Lat.Percentile(99.9),
			SLO:        ts.SLOP99,
			Violated:   ts.SLOViolated(),
		}
		if sec := ts.Meter.Elapsed().Seconds(); sec > 0 {
			tr.GoodputOps = float64(ts.Meter.Ops()) / sec
		}
		row.Tenants = append(row.Tenants, tr)
	}
	if hot := row.Tenants[0]; hot.BucketOps > 0 {
		row.HotRatio = hot.GoodputOps / hot.BucketOps
	}
	return row, nil
}

// QoS is the multi-tenant noisy-neighbor campaign: measured capacity, then
// the hot-vs-lights mix at 2x offered load with per-tenant isolation
// (token buckets + deficit-round-robin dispatch) on and off, crossed with
// the faultpool failure schedules, tabling per-tenant goodput, throttles,
// p99/p999 and SLO verdicts. Points fan across o.Parallel shards;
// calibration is one serial run; the merged table is byte-identical at any
// worker count and with the lookahead scheduler on or off.
func QoS(o Options) (QoSResult, error) {
	var res QoSResult
	// Points must outlast the admission and service transients the SLO is
	// judged against; 2400 requests put the hot tenant thousands of bucket
	// refills past its burst.
	reqs := o.pick(2400, 1200)
	faults := []string{"none", "program", "dietimeout"}
	if o.Quick {
		faults = []string{"none", "program"}
	}
	points := 2 * len(faults)

	mixCap, uniCap, err := qosCalibrate(reqs, o.DisableLookahead)
	if err != nil {
		return res, err
	}
	res.CapacityOps = mixCap
	res.UniformOps = uniCap
	res.SLOTarget = qosSLOEpochs * overloadMemberCfg().TREFI

	rows, err := runShards(points, o.workers(), func(pt int) (QoSPoint, error) {
		return qosPoint(pt, reqs, faults, mixCap, uniCap, res.SLOTarget, o.DisableLookahead)
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows

	o.printf("== QoS: %d-point noisy-neighbor campaign (3ch + 1 spare, %d reqs/point, hot %.1fx mix capacity) ==\n",
		points, reqs, qosHotX)
	o.printf("  measured capacity: mix %.0f ops/s, uniform %.0f ops/s; light-tenant SLO p99 <= %v (%d epochs)\n",
		mixCap, uniCap, res.SLOTarget, qosSLOEpochs)
	for _, r := range res.Rows {
		iso := "isolation=off"
		if r.Isolation {
			iso = "isolation=on "
		}
		o.printf("  pt%02d %s %-10s offered=%8.0f ops/s hot-ratio=%.2f lost=%d\n",
			r.Point, iso, r.Fault, r.OfferedOps, r.HotRatio, r.AckedLost)
		for _, t := range r.Tenants {
			verdict := "-"
			if t.SLO > 0 {
				if t.Violated {
					verdict = "VIOLATED"
				} else {
					verdict = "met"
				}
			}
			o.printf("    %-7s offered=%8.0f bucket=%8.0f goodput=%8.0f ops/s done=%-5d thr=%-5d shed=%-4d exp=%-4d fail=%-3d p99=%-10v p999=%-10v slo=%s\n",
				t.Name, t.OfferedOps, t.BucketOps, t.GoodputOps, t.Completed, t.Throttled,
				t.Shed, t.Expired, t.Failed, t.P99, t.P999, verdict)
		}
	}
	if on, off := res.Find(true, "none"), res.Find(false, "none"); on != nil && off != nil {
		o.printf("  fault-free: isolation on -> %d/3 lights violated, hot throttled %d (%.2fx bucket); off -> %d/3 violated, worst light p99 %v\n",
			on.LightViolations(), on.HotThrottled(), on.HotRatio,
			off.LightViolations(), off.WorstLightP99())
	}
	return res, nil
}
