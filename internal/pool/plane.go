// Request plane: the pool's embeddable async front-end. PR 4 exposed the
// pool only through Run(next), a closed harness that pulls a generator and
// owns the epoch loop — fine for batch experiments, wrong for embedding: a
// trace replayer, a network service or a host-simulator backend needs to
// *push* requests, observe backpressure, and collect completions on its own
// schedule (the VANS add_rq/add_wq + operate() shape). This file is that
// surface: non-blocking Submit returning a request ID, Step advancing one
// epoch, Poll draining typed completion records, and occupancy queries for
// admission feedback. Run/RunOpenLoop/Drain are the one driver over the
// Plane interface (driver.go), shared with the NUMA fabric, so every
// workload generator rides the same surface.
//
// # Overload robustness
//
// The PR-4 front end held every arrival at admission, unbounded ("never
// drop"): sustained offered load past capacity grew the held backlog without
// limit while each request eventually "succeeded" uselessly late. The plane
// makes overload a first-class, typed outcome instead:
//
//   - Deadlines. A request may carry a budget (openloop.Request.Deadline,
//     relative to its arrival). Expiry is evaluated only at epoch boundaries
//     in canonical channel order — the same single-threaded instants as all
//     cross-member state — so deadline handling is byte-identical at any
//     worker count. A fragment still waiting (held, queued or in retry
//     backoff) past its request's deadline is removed and the request fails
//     typed ErrDeadlineExceeded; fragments already in flight complete and
//     the request is counted late, never lost. The retry path refuses to arm
//     a backoff whose earliest completion lands past the deadline: it fails
//     immediately instead of burning backoff epochs.
//
//   - Admission shedding. Four policies: AdmitBlock (the PR-4 behavior,
//     unbounded holds), AdmitShedNewest and AdmitShedOldest (bounded holds
//     at PendingCap fragments per channel, dropping the newest arrival or
//     displacing the oldest held request), and AdmitDeadlineAware
//     (shed-newest bounds plus a feasibility check: shed on admission when
//     the estimated queue wait, from a per-channel service-interval EWMA,
//     already exceeds the request's remaining budget). Sheds are typed
//     ErrAdmissionFull. Under pressure writes shed before reads: a write is
//     held only to PendingCap/2, and a channel whose breaker is not closed
//     sheds writes at admission outright while still holding reads — the
//     degraded channel prefers serving reads over queueing writes it cannot
//     promptly land.
//
// Every terminal outcome is conserved: submitted = completed + shed +
// expired + throttled + typed-failed, and the same for writes (the Ledger,
// ledger.go, books both and CheckHealth audits them) — an acked write is
// never lost and nothing disappears silently, no matter how hard the plane
// is pushed.
package pool

import (
	"errors"
	"fmt"

	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// Typed overload sentinels, alongside the fault sentinels in health.go.
var (
	// ErrAdmissionFull: the request was shed at admission (bounded pending
	// under a shedding policy, deadline-infeasible under AdmitDeadlineAware,
	// or a shed-oldest victim displaced by a newer arrival).
	ErrAdmissionFull = errors.New("pool: admission full, request shed")
	// ErrDeadlineExceeded: the request's deadline passed while at least one
	// fragment was still waiting (held, queued, or in retry backoff), or a
	// retry could no longer complete inside the budget.
	ErrDeadlineExceeded = errors.New("pool: deadline exceeded")
)

// AdmissionPolicy selects how Submit responds to a full front end.
type AdmissionPolicy int

const (
	// AdmitBlock holds every arrival at admission, unbounded — the PR-4
	// behavior. Overload degrades into growing held latency, never drops.
	AdmitBlock AdmissionPolicy = iota
	// AdmitShedNewest bounds each channel's held backlog at PendingCap
	// fragments and sheds an incoming request when any of its target
	// channels is over (writes at PendingCap/2, and immediately when the
	// channel breaker is not closed).
	AdmitShedNewest
	// AdmitShedOldest admits the incoming request and displaces the oldest
	// held fragments' requests to make room, before each held append, so a
	// channel's held occupancy never exceeds PendingCap — not even
	// transiently (CheckHealth asserts the high-water mark). Victims fail
	// typed ErrAdmissionFull. Displacement is pure FIFO — no read/write
	// preference, and a request large enough to overflow a channel's cap by
	// itself starts displacing its own oldest fragments — deliberate: the
	// policy favors fresh traffic uniformly.
	AdmitShedOldest
	// AdmitDeadlineAware applies the AdmitShedNewest bounds, and additionally
	// sheds a deadlined request on admission when any target channel's
	// estimated queue wait (service-interval EWMA x backlog depth)
	// already exceeds the remaining budget.
	AdmitDeadlineAware
)

func (a AdmissionPolicy) String() string {
	switch a {
	case AdmitBlock:
		return "block"
	case AdmitShedNewest:
		return "shed-newest"
	case AdmitShedOldest:
		return "shed-oldest"
	case AdmitDeadlineAware:
		return "deadline-aware"
	}
	return fmt.Sprintf("AdmissionPolicy(%d)", int(a))
}

// ParseAdmissionPolicy maps the CLI spelling to a policy.
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) {
	switch s {
	case "block", "":
		return AdmitBlock, nil
	case "shed-newest":
		return AdmitShedNewest, nil
	case "shed-oldest":
		return AdmitShedOldest, nil
	case "deadline-aware":
		return AdmitDeadlineAware, nil
	}
	return AdmitBlock, fmt.Errorf("pool: unknown admission policy %q (want block | shed-newest | shed-oldest | deadline-aware)", s)
}

// Outcome classifies a terminal request.
type Outcome int

const (
	// OutcomeCompleted: every fragment succeeded (possibly past the
	// deadline; see Completion.Late).
	OutcomeCompleted Outcome = iota
	// OutcomeShed: dropped at or after admission by a shedding policy.
	OutcomeShed
	// OutcomeExpired: deadline passed before completion.
	OutcomeExpired
	// OutcomeFailed: typed failure (retries exhausted, member quarantined).
	OutcomeFailed
	// OutcomeThrottled: refused by the tenant's token bucket (qos.go).
	// Throttling is synchronous at Submit — the caller holds the typed
	// ErrTenantThrottled and no Completion record is produced — so the
	// outcome appears only if a future path retires a throttled request
	// asynchronously.
	OutcomeThrottled
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeShed:
		return "shed"
	case OutcomeExpired:
		return "expired"
	case OutcomeFailed:
		return "failed"
	case OutcomeThrottled:
		return "throttled"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Completion is one terminal request record, delivered in deterministic
// boundary order through Poll. Requests shed synchronously at Submit
// produce no record — the caller already holds the typed error.
type Completion struct {
	ID      uint64
	Tenant  int
	Write   bool
	Outcome Outcome
	// Err carries the typed chain for Shed/Expired/Failed outcomes.
	Err error
	// At is the terminal instant (last fragment outcome).
	At sim.Time
	// Latency is At minus the request's arrival.
	Latency sim.Duration
	// Late marks a completed request that finished past its deadline;
	// Lateness is the overshoot.
	Late     bool
	Lateness sim.Duration
}

// ChannelOccupancy is one channel's backpressure view, for admission
// feedback and host-side flow control.
type ChannelOccupancy struct {
	// Held counts admission-held fragments (unbounded under AdmitBlock,
	// bounded by PendingCap under the shedding policies).
	Held int
	// Queued counts fragments in the bounded dispatch queue.
	Queued int
	// InFlight counts dispatched fragments not yet collected.
	InFlight int
	// Breaker is the channel breaker state (closed / open / half-open).
	Breaker string
	// ServiceEWMA is the smoothed per-fragment service interval (the
	// channel's long-run busy time per completed fragment) the
	// deadline-aware admission estimate uses (0 until the channel has
	// completed its first fragment).
	ServiceEWMA sim.Duration
}

// Submit offers one request to the plane at the current epoch boundary and
// returns its ID. It never blocks: under a shedding policy an over-capacity
// or deadline-infeasible request is rejected with a typed ErrAdmissionFull
// (the request is still counted — shed is a terminal outcome, part of the
// conservation equation). The plane is single-threaded by design: call
// Submit only between Steps, at the epoch boundary — the same instants the
// internal harnesses use.
func (p *Pool) Submit(r openloop.Request) (uint64, error) {
	frags := p.Dec.FragmentsInto(p.fragScratch[:0], r.Off, r.Len)
	p.fragScratch = frags[:0]
	id, arrival, deadline := p.Open(r)
	ts := p.qosTenant(r.Tenant)
	if ts != nil {
		ts.led.Submit(r.Write)
	}

	// Token-bucket policing gates admission before every other policy: a
	// tenant over its rate is refused here, synchronously and typed, before
	// its fragments could occupy any queue. Enforcement is armed only under
	// QoS isolation; tracking-only configs never throttle.
	var refusal error
	if p.Cfg.QoS.Isolation && !ts.admitBucket() {
		refusal = fmt.Errorf("pool: tenant %d: %w", r.Tenant, ErrTenantThrottled)
	} else {
		refusal = p.shedAtAdmission(frags, r.Write, arrival, deadline)
	}
	if refusal != nil {
		o := p.led.Retire(r.Write, false, refusal, poolTyped)
		tally(p.chans[p.channelOf(frags[0].Member)], ts, r.Write, false, refusal, o)
		return id, refusal
	}

	req := p.Track(Request{
		ID:       id,
		Tenant:   r.Tenant,
		Home:     p.channelOf(frags[0].Member),
		Arrival:  arrival,
		Deadline: deadline,
		Write:    r.Write,
		Bytes:    r.Len,
	}, frags)
	for i := range frags {
		f := req.Piece(i)
		ci := p.channelOf(f.Member)
		ch := p.chans[ci]
		p.unpark(ch)
		switch {
		case len(ch.tq) > 0:
			// Isolation: every fragment waits in its tenant's FIFO and enters
			// the queue through the DRR refill at the next boundary — a single
			// ordering authority, so a burst cannot bypass the round robin
			// through the direct-to-queue fast path.
			if p.Cfg.Admission == AdmitShedOldest {
				p.displaceOldest(ch, ci)
			}
			qi := p.qosIndex(r.Tenant)
			ch.tq[qi].fifo = append(ch.tq[qi].fifo, f)
			ch.c.held.Inc()
		case len(ch.queue) < p.queueCap:
			ch.queue = append(ch.queue, f)
			ch.c.admitted.Inc()
		default:
			if p.Cfg.Admission == AdmitShedOldest {
				p.displaceOldest(ch, ci)
			}
			ch.pending = append(ch.pending, f)
			ch.c.held.Inc()
		}
		ch.mark()
	}
	return id, nil
}

// Occupancy returns every channel's backpressure view, channel order.
func (p *Pool) Occupancy() []ChannelOccupancy {
	out := make([]ChannelOccupancy, len(p.chans))
	for i, ch := range p.chans {
		p.catchUp(ch)
		out[i] = ChannelOccupancy{
			Held:        ch.held(),
			Queued:      len(ch.queue),
			InFlight:    ch.inflight,
			Breaker:     ch.brk.state.String(),
			ServiceEWMA: ch.ewma,
		}
	}
	return out
}

// Backlog returns the total fragments not yet terminal: held + queued + in
// flight + waiting out retry backoff.
func (p *Pool) Backlog() int {
	n := len(p.sup.Retries)
	for _, ch := range p.chans {
		n += ch.held() + len(ch.queue) + ch.inflight
	}
	return n
}

// Quiesced reports whether every submitted request reached a terminal
// outcome and no background work (retries, rebuilds) remains.
func (p *Pool) Quiesced() bool {
	return p.Settled() && p.Backlog() == 0 && len(p.sup.Jobs) == 0
}

// Epochs returns the epochs taken so far.
func (p *Pool) Epochs() int { return p.sup.Epochs }

// shedAtAdmission decides whether an incoming request is dropped before any
// fragment is enqueued. Only AdmitShedNewest and AdmitDeadlineAware shed
// here; AdmitShedOldest displaces victims after admission and AdmitBlock
// never sheds.
func (p *Pool) shedAtAdmission(frags []Extent, write bool, arrival, deadline sim.Time) error {
	if p.Cfg.Admission != AdmitShedNewest && p.Cfg.Admission != AdmitDeadlineAware {
		return nil
	}
	add := p.fragsPerChannel(frags)
	for ci := 0; ci < len(p.chans); ci++ {
		n := add[ci]
		if n == 0 {
			continue
		}
		ch := p.chans[ci]
		p.catchUp(ch)
		limit := p.Cfg.PendingCap
		if write {
			// Writes shed first: half the headroom, and none at all through a
			// breaker that is not closed — the degraded channel serves reads.
			if ch.brk.state != breakerClosed {
				ch.ctr.Inc("shed-write-breaker")
				return fmt.Errorf("pool: channel %d breaker %s sheds writes: %w", ci, ch.brk.state, ErrAdmissionFull)
			}
			limit /= 2
		}
		if ch.held()+n > limit {
			ch.ctr.Inc("shed-pending-full")
			return fmt.Errorf("pool: channel %d held %d+%d over cap %d: %w",
				ci, ch.held(), n, limit, ErrAdmissionFull)
		}
		if p.Cfg.Admission == AdmitDeadlineAware && deadline > 0 {
			if wait := p.estimatedWait(ci, n); wait >= 0 {
				start := p.now
				if arrival > start {
					start = arrival
				}
				// The estimate is a mean; service here is bimodal (a cache
				// hit is microseconds, a dirty-eviction NAND program chain
				// runs near a millisecond), so a request admitted right at
				// the mean boundary lands late about half the time. Requiring
				// double the estimated wait to fit converts the mean into a
				// usable bound, while an overloaded channel still keeps
				// enough admitted backlog to feed its dispatch window.
				if start.Add(2*wait) > deadline {
					ch.ctr.Inc("shed-deadline-infeasible")
					return fmt.Errorf("pool: channel %d estimated wait %d ps past deadline: %w",
						ci, int64(wait), ErrAdmissionFull)
				}
			}
		}
	}
	return nil
}

// estimatedWait returns the deadline-aware admission estimate for a new
// fragment on channel ci with extra incoming fragments counted in the
// backlog: backlog depth times the channel's service-interval EWMA. The
// EWMA smooths the channel's long-run busy time per completed fragment,
// so depth x interval is the time for the channel to drain everything
// ahead of (and including) the new work at its delivered rate. Returns -1
// while the channel has no interval signal yet (nothing completed): with
// no estimate the plane admits — shedding on ignorance would starve cold
// channels.
func (p *Pool) estimatedWait(ci, extra int) sim.Duration {
	ch := p.chans[ci]
	if ch.ewma <= 0 {
		return -1
	}
	ahead := ch.held() + len(ch.queue) + ch.inflight + extra
	return sim.Duration(int64(ch.ewma) * int64(ahead))
}

// fragsPerChannel counts a request's fragments per target channel into the
// pool's reusable scratch buffer (valid until the next call; its callers'
// lifetimes never overlap).
func (p *Pool) fragsPerChannel(frags []Extent) []int {
	if p.chanScratch == nil {
		p.chanScratch = make([]int, len(p.chans))
	}
	add := p.chanScratch
	for i := range add {
		add[i] = 0
	}
	for i := range frags {
		add[p.channelOf(frags[i].Member)]++
	}
	return add
}

// displaceOldest makes room for one incoming held fragment on channel ci
// under AdmitShedOldest: while the channel sits at PendingCap, the oldest
// held fragment is removed and its whole request canceled (typed
// ErrAdmissionFull) — other waiting fragments of the victim are swept at
// the next boundary, in-flight ones complete and count their pieces.
// Displacing before the append (admission and retry promotion both call
// here) keeps held occupancy, and therefore the HeldHW mark, at or under
// PendingCap at every instant; the old post-append sweep let both
// overshoot transiently by the incoming request's fragment count. Under QoS
// isolation the held backlog is split across per-tenant FIFOs; the victim
// is the globally oldest head (request IDs are submission-ordered), so the
// policy stays pure FIFO across tenants.
func (p *Pool) displaceOldest(ch *channelState, ci int) {
	for ch.held() > 0 && ch.held() >= p.Cfg.PendingCap {
		list := &ch.pending
		for i := range ch.tq {
			q := &ch.tq[i].fifo
			if len(*q) == 0 {
				continue
			}
			if len(*list) == 0 || (*q)[0].Req.ID < (*list)[0].Req.ID {
				list = q
			}
		}
		victim := (*list)[0]
		*list = dropFront(*list, 1)
		ch.ctr.Inc("frags-shed-oldest")
		p.cancelRequest(victim.Req,
			fmt.Errorf("pool: channel %d shed oldest held request %d: %w", ci, victim.Req.ID, ErrAdmissionFull))
		p.requestPieceDone(victim.Req, p.now, nil)
	}
}

// cancelRequest marks a request terminally doomed (shed or expired): its
// first typed error is recorded and waiting fragments become sweepable.
// In-flight fragments still complete and count their pieces — cancellation
// never strands accounting.
func (p *Pool) cancelRequest(r *Request, err error) {
	if r.Err == nil {
		r.Err = err
	}
	r.Canceled = true
}

// expireAndSweep runs first at each boundary, canonical channel order: it
// removes waiting fragments whose request deadline has passed (failing the
// request typed ErrDeadlineExceeded) or whose request was canceled by a
// shedding decision, from every held list, dispatch queue and the retry
// queue. In-flight fragments are untouched. This is the only place deadline
// expiry is evaluated — boundary instants, single-threaded — so expiry is
// byte-identical at any worker count.
func (p *Pool) expireAndSweep() {
	now := p.now
	doomed := func(f *Piece) bool {
		r := f.Req
		if r.Canceled {
			return true
		}
		if r.Deadline > 0 && r.Deadline <= now {
			p.cancelRequest(r, fmt.Errorf("pool: request %d expired at epoch boundary: %w", r.ID, ErrDeadlineExceeded))
			return true
		}
		return false
	}
	for _, ch := range p.chans {
		if ch.parked {
			continue // nothing waits on it
		}
		ch.pending = p.sweepList(ch, ch.pending, doomed)
		for i := range ch.tq {
			ch.tq[i].fifo = p.sweepList(ch, ch.tq[i].fifo, doomed)
		}
		ch.queue = p.sweepList(ch, ch.queue, doomed)
	}
	if len(p.sup.Retries) > 0 {
		keep := p.sup.Retries[:0]
		for _, e := range p.sup.Retries {
			if f := e.Item; doomed(f) {
				p.chans[p.channelOf(f.Member)].ctr.Inc("frags-expired")
				p.requestPieceDone(f.Req, now, nil)
				continue
			}
			keep = append(keep, e)
		}
		p.sup.Retries = keep
	}
}

// sweepList filters one fragment list in place, retiring doomed fragments.
func (p *Pool) sweepList(ch *channelState, list []*Piece, doomed func(*Piece) bool) []*Piece {
	keep := list[:0]
	for _, f := range list {
		if doomed(f) {
			ch.ctr.Inc("frags-expired")
			p.requestPieceDone(f.Req, p.now, nil)
			continue
		}
		keep = append(keep, f)
	}
	return keep
}
