// Multi-tenant QoS: token-bucket admission policing, deficit-round-robin
// (DRR) dispatch, and per-tenant SLO tracking. The request plane threads a
// Tenant index through every request, but before this file dispatch was
// tenant-blind: one zipfian-hot tenant could fill every queue and collapse
// the tail for everyone sharing the socket — the noisy-neighbor failure mode
// the pmem characterization literature documents on real hardware. QoS makes
// interference a configured, bounded quantity instead:
//
//   - Token buckets (rate + burst, per tenant) police admission *before* the
//     existing policies: a request arriving to an empty bucket is refused
//     synchronously with typed ErrTenantThrottled — a terminal, conserved
//     outcome like a shed, not a queued-then-dropped one. Buckets refill at
//     epoch boundaries only (one deterministic float addition per tenant per
//     epoch, canonical tenant order, replayed identically by the quiet-batch
//     scheduler), so policing is byte-identical at any worker count.
//
//   - DRR replaces the FIFO held-list drain at each channel: with isolation
//     on, every admitted fragment waits in its tenant's per-channel FIFO, and
//     the queue refill visits tenants round-robin, granting quantum x weight
//     byte credits per visit and admitting fragments while credit lasts.
//     A tenant's deficit resets when its FIFO empties — no credit hoarding —
//     so an idle tenant's unused share redistributes to whoever has work
//     (work conservation; the property tests pin both).
//
//   - Per-tenant latency histograms, meters and outcome counters ride the
//     metrics Merge primitives, with a per-tenant p99 SLO target and both an
//     online violation counter and a final-percentile verdict.
//
// All of it is strictly opt-in: with Config.QoS zero the pool runs the exact
// legacy byte path.
package pool

import (
	"errors"
	"fmt"
	"math"

	"nvdimmc/internal/metrics"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// ErrTenantThrottled: the tenant's token bucket was empty at admission; the
// request was refused synchronously (terminal, typed, conserved).
var ErrTenantThrottled = errors.New("pool: tenant over token-bucket rate, request throttled")

// TenantQoS configures one tenant's service contract, index-matched to the
// generator's tenant indexes (openloop.Config.Tenants).
type TenantQoS struct {
	Name string
	// Weight is the tenant's DRR service share (default 1). Each round-robin
	// visit grants the tenant QuantumBytes x Weight byte credits.
	Weight float64
	// RatePerSec is the token-bucket refill rate in requests per simulated
	// second; zero leaves the tenant unpoliced (no bucket).
	RatePerSec float64
	// Burst is the bucket depth in requests (default 8 when rate-limited):
	// the largest back-to-back run admitted from a full bucket.
	Burst int
	// SLOP99 is the tenant's target p99 latency; zero disables SLO tracking.
	SLOP99 sim.Duration
}

// QoSConfig is the pool's multi-tenant QoS block. The zero value disables
// everything (the legacy tenant-blind path, byte-identical to before).
type QoSConfig struct {
	// Tenants enables per-tenant accounting. Requests whose Tenant index
	// falls outside the slice are tracked under an internal catch-all with
	// weight 1 and no bucket.
	Tenants []TenantQoS
	// Isolation arms enforcement: token buckets gate admission and DRR
	// replaces the FIFO held-list drain. Off, tenants are tracked but
	// scheduled exactly as before.
	Isolation bool
	// QuantumBytes is the DRR byte credit granted per weight unit per visit
	// (default 4096 — one page, so equal-weight tenants alternate pages and
	// a 2 MB stripe fragment costs 512 visits of accumulated credit).
	QuantumBytes int
}

func (q *QoSConfig) enabled() bool { return len(q.Tenants) > 0 }

// validate normalizes defaults in place and rejects degenerate contracts.
func (q *QoSConfig) validate() error {
	if q.Isolation && len(q.Tenants) == 0 {
		return fmt.Errorf("pool: QoS isolation armed with no tenants")
	}
	if q.QuantumBytes < 0 {
		return fmt.Errorf("pool: QoS quantum %d B negative", q.QuantumBytes)
	}
	if q.QuantumBytes == 0 {
		q.QuantumBytes = 4096
	}
	for i := range q.Tenants {
		t := &q.Tenants[i]
		if t.Weight < 0 || math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
			return fmt.Errorf("pool: QoS tenant %d weight %v is not a share (zero defaults to 1)", i, t.Weight)
		}
		if t.Weight == 0 {
			t.Weight = 1
		}
		if int64(t.Weight*float64(q.QuantumBytes)) < 1 {
			return fmt.Errorf("pool: QoS tenant %d weight %v x quantum %d rounds below one byte credit per visit",
				i, t.Weight, q.QuantumBytes)
		}
		if t.RatePerSec < 0 || math.IsNaN(t.RatePerSec) || math.IsInf(t.RatePerSec, 0) {
			return fmt.Errorf("pool: QoS tenant %d rate %v req/s is not a rate (zero disables the bucket)", i, t.RatePerSec)
		}
		if t.Burst < 0 {
			return fmt.Errorf("pool: QoS tenant %d burst %d negative", i, t.Burst)
		}
		if t.Burst == 0 && t.RatePerSec > 0 {
			t.Burst = 8
		}
		if t.SLOP99 < 0 {
			return fmt.Errorf("pool: QoS tenant %d SLO p99 %d ps negative (zero disables tracking)", i, int64(t.SLOP99))
		}
	}
	return nil
}

// QoSFromTenants derives a pool QoS block from an openloop tenant list's
// QoS fields (QoSWeight / LimitPerSec / Burst / SLOP99), so an experiment
// configures each tenant's traffic and contract in one place.
func QoSFromTenants(tenants []openloop.Tenant, isolation bool) QoSConfig {
	q := QoSConfig{Isolation: isolation}
	for _, t := range tenants {
		q.Tenants = append(q.Tenants, TenantQoS{
			Name:       t.Name,
			Weight:     t.QoSWeight,
			RatePerSec: t.LimitPerSec,
			Burst:      t.Burst,
			SLOP99:     t.SLOP99,
		})
	}
	return q
}

// tenantState is one tenant's runtime QoS state, boundary-only like all
// cross-member state. The pool keeps len(Tenants)+1 of these: the last is
// the catch-all for out-of-range tenant indexes.
type tenantState struct {
	cfg    TenantQoS
	tokens float64 // current bucket level, in requests
	refill float64 // tokens added per epoch (0: unpoliced)
	burst  float64 // bucket cap

	lat   *metrics.Histogram
	meter *metrics.Meter
	// led books the tenant's share of the pool ledger; the tenant ledgers
	// sum to the pool's (checkQoSConservation).
	led Ledger
	// overSLO counts completions (online, as they land) slower than the
	// tenant's SLOP99 target — the running violation counter; the final
	// verdict compares the whole histogram's p99 against the target.
	overSLO uint64
}

// tenantQueue is one tenant's per-channel admission FIFO plus its DRR
// credit state.
type tenantQueue struct {
	fifo    []*fragment
	deficit int64 // accumulated byte credit, reset when fifo empties
	quantum int64 // byte credit granted per round-robin visit
}

// initQoS builds the runtime tenant states (and, under isolation, each
// channel's per-tenant FIFOs). Called at the end of New, after epoch0 and
// the channel states exist.
func (p *Pool) initQoS() {
	q := &p.Cfg.QoS
	if !q.enabled() {
		return
	}
	epochSec := float64(p.epoch) / float64(sim.Second)
	p.qosT = make([]tenantState, len(q.Tenants)+1)
	for i := range q.Tenants {
		t := q.Tenants[i]
		ts := &p.qosT[i]
		ts.cfg = t
		if t.RatePerSec > 0 {
			ts.refill = t.RatePerSec * epochSec
			ts.burst = float64(t.Burst)
			ts.tokens = ts.burst // buckets open full
		}
		ts.lat = metrics.NewHistogram()
		ts.meter = metrics.NewMeter(p.epoch0)
	}
	other := &p.qosT[len(q.Tenants)]
	other.cfg = TenantQoS{Name: "(other)", Weight: 1}
	other.lat = metrics.NewHistogram()
	other.meter = metrics.NewMeter(p.epoch0)
	if !q.Isolation {
		return
	}
	for _, ch := range p.chans {
		ch.tq = make([]tenantQueue, len(p.qosT))
		for i := range ch.tq {
			ch.tq[i].quantum = int64(p.qosT[i].cfg.Weight * float64(q.QuantumBytes))
		}
	}
}

// qosTenant resolves a request's tenant index to its QoS state (nil when
// QoS tracking is off; the catch-all for out-of-range indexes).
func (p *Pool) qosTenant(t int) *tenantState {
	if len(p.qosT) == 0 {
		return nil
	}
	if t < 0 || t >= len(p.qosT)-1 {
		return &p.qosT[len(p.qosT)-1]
	}
	return &p.qosT[t]
}

// qosIndex maps a request's tenant index to its per-channel FIFO slot.
func (p *Pool) qosIndex(t int) int {
	if t < 0 || t >= len(p.qosT)-1 {
		return len(p.qosT) - 1
	}
	return t
}

// admitBucket charges one token for an admission, reporting false when the
// bucket is empty (the request must be throttled). Unpoliced tenants always
// admit.
func (ts *tenantState) admitBucket() bool {
	if ts.refill <= 0 {
		return true
	}
	if ts.tokens < 1 {
		return false
	}
	ts.tokens--
	return true
}

// refillTokens adds each policed tenant's per-epoch allotment, capped at its
// burst depth, for k epochs: Step refills one, StepQuiet its whole span.
// Each epoch is one float addition, in the same order the naive path makes
// them, so bucket levels (and therefore every admission decision that reads
// them) are bit-identical at any worker count and under the lookahead
// scheduler. The replay stops at the first epoch that leaves a bucket
// unchanged — full at burst, or an allotment too small to move the float —
// because every later epoch would repeat it. Refilling is pure
// accumulation: it never creates a cross-member event, so it bounds no
// quiet horizon.
func (p *Pool) refillTokens(k int) {
	for i := range p.qosT {
		ts := &p.qosT[i]
		if ts.refill <= 0 {
			continue
		}
		for j := 0; j < k; j++ {
			t := ts.tokens + ts.refill
			if t > ts.burst {
				t = ts.burst
			}
			if t == ts.tokens {
				break
			}
			ts.tokens = t
		}
	}
}

// held returns the channel's admission-held fragment count across the
// tenant-blind pending list and (under isolation) every tenant FIFO.
func (ch *channelState) held() int {
	n := len(ch.pending)
	for i := range ch.tq {
		n += len(ch.tq[i].fifo)
	}
	return n
}

// fillDRR refills the dispatch queue from the per-tenant held FIFOs by
// deficit round robin: each visit grants the tenant its quantum (bytes x
// weight) of credit and admits head fragments while credit covers their
// byte cost; an emptied FIFO forfeits its remaining credit (no hoarding),
// which is exactly what redistributes an idle tenant's share — the round
// robin simply skips it and the busy tenants' visits come around sooner.
// The round pointer persists across epochs so short refills stay fair.
//
// A visit can also be cut short by queue room rather than credit (the
// refill variant of DRR's blocked link). The pointer must then STAY on the
// interrupted tenant and the next refill must resume without a fresh
// quantum — advancing past it would hand tenants later in pointer order
// only the leftover room every epoch, starving exactly the heavy weights
// the quantum is meant to protect.
func (p *Pool) fillDRR(ch *channelState) {
	active := 0
	for i := range ch.tq {
		active += len(ch.tq[i].fifo)
	}
	n := len(ch.tq)
	for active > 0 && len(ch.queue) < p.Cfg.QueueCap {
		tq := &ch.tq[ch.drrNext]
		mid := ch.drrMid
		ch.drrMid = false
		if len(tq.fifo) == 0 {
			tq.deficit = 0
			ch.drrNext = (ch.drrNext + 1) % n
			continue
		}
		if !mid {
			tq.deficit += tq.quantum
		}
		taken := 0
		for taken < len(tq.fifo) && len(ch.queue) < p.Cfg.QueueCap {
			f := tq.fifo[taken]
			cost := int64(f.n)
			if tq.deficit < cost {
				break
			}
			tq.deficit -= cost
			taken++
			active--
			ch.queue = append(ch.queue, f)
			ch.c.admitted.Inc()
		}
		tq.fifo = dropFront(tq.fifo, taken)
		switch {
		case len(tq.fifo) == 0:
			tq.deficit = 0
		case tq.deficit >= int64(tq.fifo[0].n):
			// Credit still covers the head, so only queue room stopped
			// the visit: resume here next refill, quantum already spent.
			ch.drrMid = true
			return
		}
		ch.drrNext = (ch.drrNext + 1) % n
	}
}

// TenantStats is one tenant's QoS view in Stats.
type TenantStats struct {
	Name   string
	Weight float64
	// RatePerSec / Burst echo the bucket contract (0: unpoliced).
	RatePerSec float64
	Burst      int
	// SLOP99 is the target p99 (0: untracked).
	SLOP99 sim.Duration
	// Lat holds the tenant's completed-request latencies; Meter its
	// completed bytes over the measurement span.
	Lat   *metrics.Histogram
	Meter *metrics.Meter
	// Ledger books the tenant's outcomes (Throttled: refused by its token
	// bucket, typed ErrTenantThrottled).
	Ledger
	// OverSLO is the online count of completions slower than SLOP99.
	OverSLO uint64
}

// P99 returns the tenant's completed-request p99.
func (t TenantStats) P99() sim.Duration { return t.Lat.Percentile(99) }

// SLOViolated reports whether the tenant's final p99 exceeds its target
// (always false for untracked tenants).
func (t TenantStats) SLOViolated() bool {
	return t.SLOP99 > 0 && t.Lat.Percentile(99) > t.SLOP99
}

// tenantStats exports the per-tenant view (configured tenants only — the
// internal catch-all is excluded; its traffic still counts in the pool
// aggregates and the conservation equation).
func (p *Pool) tenantStats() []TenantStats {
	if len(p.qosT) == 0 {
		return nil
	}
	out := make([]TenantStats, len(p.qosT)-1)
	for i := range out {
		ts := &p.qosT[i]
		out[i] = TenantStats{
			Name:       ts.cfg.Name,
			Weight:     ts.cfg.Weight,
			RatePerSec: ts.cfg.RatePerSec,
			Burst:      ts.cfg.Burst,
			SLOP99:     ts.cfg.SLOP99,
			Lat:        ts.lat,
			Meter:      ts.meter,
			Ledger:     ts.led,
			OverSLO:    ts.overSLO,
		}
	}
	return out
}

// checkQoSConservation asserts that every request was booked to exactly
// one tenant: the tenant ledgers (catch-all included) sum to the pool
// ledger, counter by counter.
func (p *Pool) checkQoSConservation() error {
	if len(p.qosT) == 0 {
		return nil
	}
	var sum Ledger
	for i := range p.qosT {
		sum.add(p.qosT[i].led)
	}
	want := p.led
	want.FirstFailure = nil
	if sum != want {
		return fmt.Errorf("pool: per-tenant ledgers %+v do not sum to the pool ledger %+v", sum, want)
	}
	return nil
}
