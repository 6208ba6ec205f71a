package experiments

import (
	"fmt"

	"nvdimmc/internal/fault"
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
	// Outcome is the tenant's own ledger and latency histogram.
	Outcome
	// GoodputOps is the tenant's completions per second over its completion
	// span.
	GoodputOps float64
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
	HotRatio float64
	Outcome
	Tenants []QoSTenantRow
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
	Campaign[QoSPoint]
}

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
		if p99 := t.Lat.Percentile(99); p99 > w {
			w = p99
		}
	}
	return w
}

// qosMix is the campaign's four tenants, all at 80% reads: the hot
// zipfian tenant, then three uniform lights. hot and light carry the
// weights and contracts.
func qosMix(hot, light openloop.Tenant) []openloop.Tenant {
	hot.Name, hot.Dist, hot.ReadPct = "hot", openloop.Zipfian, 80
	ts := []openloop.Tenant{hot}
	for i := 0; i < 3; i++ {
		l := light
		l.Name, l.Dist, l.ReadPct = fmt.Sprintf("light%d", i), openloop.Uniform, 80
		ts = append(ts, l)
	}
	return ts
}

// qosPoint is a campaign pool: the overload campaign's point with seeds
// split from seed, under one tenant over the whole capacity or qosMix's
// four: the hot tenant works the low half, the three lights split the
// rest.
func qosPoint(o Options, label, seed string, tenants []openloop.Tenant) Point {
	p := campaignPoint(label, overloadMemberCfg(), sim.SplitSeed(23, "qos/"+seed), sim.SplitSeed(23, "qos-load/"+seed),
		0, o.DisableLookahead)
	p.Load.Tenants, p.Reqs = tenants, o.pick(2400, 1200)
	if len(tenants) > 1 {
		p.Shares = []int{3, 1, 1, 1}
	}
	return p
}

// qosCalibrate measures the campaign's two capacity references, each one
// serial calibrate run with the QoS contracts disarmed: the hot-dominated
// mix blend at the nominal 12:1:1:1 traffic split (the hot tenant's ~80%
// share of the no-isolation arrival stream; the hot tenant's overload
// multiple) and a pure uniform probe (the lights' miss-dominated regime).
// Calibrating on the mix matters for the hot side — its zipfian working
// set is far more cache-friendly than a uniform probe, so a uniform
// capacity number would not overload the mix at any modest multiple —
// while the lights must be priced against the uniform number or their
// "light" load would itself exceed the miss-service rate.
func qosCalibrate(o Options) (mixCap, uniCap float64, err error) {
	mixCap, err = calibrate(qosPoint(o, "qos mix calibration", "cal/mix",
		qosMix(openloop.Tenant{Weight: 12}, openloop.Tenant{Weight: 1})))
	if err != nil {
		return 0, 0, err
	}
	uniCap, err = calibrate(qosPoint(o, "qos uniform calibration", "cal/uniform",
		[]openloop.Tenant{{Name: "uni", Dist: openloop.Uniform, ReadPct: 80}}))
	return mixCap, uniCap, err
}

// qosTable is the campaign's points and row at the calibrated capacities:
// isolation on at even points, off at odd, under fault plan pt/2. Point pt
// is a fully independent pool (own seed splits for members, faults and
// workload), so points fan across shards with byte-identical merged
// output. Arrival weights are the tenants' absolute offered rates
// (openloop normalizes, so weight ratios ARE the traffic split, and the
// arrival clock runs at their sum): the hot tenant at qosHotX x mix
// capacity with a token bucket at a quarter of that, each light at
// qosLightX x uniform capacity with a p99 SLO. DRR service weights stay
// equal — the fairness mechanism, not the arrival mix, is the campaign
// subject. The off arm drops enforcement but keeps per-tenant tracking,
// so both arms report the same observables. Points must outlast the
// admission and service transients the SLO is judged against; 2400
// requests put the hot tenant thousands of bucket refills past its burst.
// Conservation — pool-wide and per-tenant, including throttled — is
// audited at every point, under every fault schedule.
func qosTable(o Options, mixCap, uniCap float64) ([]Point, func(int, Point) (QoSPoint, error)) {
	faults := victimPlans(fault.Program, fault.DieTimeout)
	if o.Quick {
		faults = faults[:2]
	}
	hotRate := qosHotX * mixCap
	pts := make([]Point, 2*len(faults))
	for pt := range pts {
		isolation, plan := pt%2 == 0, faults[pt/2]
		p := qosPoint(o, fmt.Sprintf("qos point %d (iso=%v %s)", pt, isolation, plan), fmt.Sprint(pt),
			qosMix(openloop.Tenant{Weight: hotRate, LimitPerSec: hotRate / qosBucketDiv, Burst: 32},
				openloop.Tenant{Weight: qosLightX * uniCap, SLOP99: qosSLOEpochs * overloadMemberCfg().TREFI}))
		for _, t := range p.Load.Tenants {
			p.Load.RatePerSec += t.Weight
		}
		p.QoS = QoSTrack
		if isolation {
			p.QoS = QoSIsolate
		}
		p.Plan = plan
		pts[pt] = p
	}
	return pts, func(pt int, p Point) (QoSPoint, error) {
		pl, out, err := p.Run(nil)
		if err != nil {
			return QoSPoint{}, err
		}
		row := QoSPoint{
			Point:      pt,
			Isolation:  p.QoS == QoSIsolate,
			Fault:      faultName(p.Plan),
			OfferedOps: p.Load.RatePerSec,
			Outcome:    out,
		}
		for i, ts := range pl.(*pool.Pool).Stats().PerTenant {
			tr := QoSTenantRow{
				Name:       ts.Name,
				OfferedOps: p.Load.Tenants[i].Weight, // weights are offered rates
				BucketOps:  ts.RatePerSec,
				Outcome:    Outcome{Ledger: ts.Ledger, Lat: ts.Lat},
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
	// The calibrated rates are written into the points before sharding,
	// so each row is a function of its point's value alone.
	mixCap, uniCap, err := qosCalibrate(o)
	if err != nil {
		return res, err
	}
	res.CapacityOps, res.UniformOps = mixCap, uniCap
	res.SLOTarget = qosSLOEpochs * overloadMemberCfg().TREFI
	pts, row := qosTable(o, mixCap, uniCap)
	points, reqs := len(pts), pts[0].Reqs
	res.Rows, err = runShards(points, o.workers(), func(i int) (QoSPoint, error) { return row(i, pts[i]) })
	if err != nil {
		return res, err
	}

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
			r.Point, iso, r.Fault, r.OfferedOps, r.HotRatio, r.WritesLost())
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
				t.Shed, t.Expired, t.Failed, t.Lat.Percentile(99), t.Lat.Percentile(99.9), verdict)
		}
	}
	if on, off := res.Find(true, "none"), res.Find(false, "none"); on != nil && off != nil {
		o.printf("  fault-free: isolation on -> %d/3 lights violated, hot throttled %d (%.2fx bucket); off -> %d/3 violated, worst light p99 %v\n",
			on.LightViolations(), on.HotThrottled(), on.HotRatio,
			off.LightViolations(), off.WorstLightP99())
	}
	return res, nil
}
