// Package pool scales the single-module simulation to a socket: N
// independent core.System instances — one per (channel, DIMM) position, each
// with its own iMC, DRAM cache, refresh detector, NVMC and auditor — behind
// an interleaved address decoder and an open-loop front-end scheduler with
// per-channel queues, epoch-batched dispatch, bounded in-flight windows and
// admission control. The paper's PoC is one NVDIMM-C on one DDR4 channel
// (§VI); its target deployment (§I, §VIII) populates 6 channels x 2 DIMMs
// per socket, where the Optane literature shows interleave granularity and
// per-DIMM contention dominate delivered bandwidth and tail latency.
//
// # Determinism
//
// Channels advance in conservative epoch lockstep. All cross-member
// interaction — arrival admission, queue refill, window dispatch, completion
// collection — happens at epoch boundaries, in canonical member/channel
// order; between boundaries each member's kernel runs to the next boundary
// in member order on the stepping goroutine, touching only its own state (a
// quiescent member is parked instead and caught up exactly when next
// touched; see advanceAll). A member never observes another member's
// mid-epoch state. Workers build and prefill members only (New), so the
// pooled run is byte-identical at any worker count, including under -race. The price is scheduling latency
// quantized to the epoch (default one tREFI) and an in-flight window that
// only recycles at boundaries; both are front-end costs a real socket pays
// in different coin (arbitration, queue polling), and both are sized so the
// window, not the epoch, bounds per-channel throughput headroom.
//
// # Backpressure
//
// Each channel owns a bounded dispatch queue (QueueCap) feeding a bounded
// in-flight window (Window). Arrivals that find their channel's queue full
// are held at admission and re-offered each epoch in arrival order. Under
// the default AdmitBlock policy the held list is unbounded — never drop — so
// a hot channel degrades into growing held/queue latency on its own traffic
// while other channels keep streaming; the shedding policies (plane.go)
// bound it at PendingCap and turn overload into typed, counted sheds
// instead. Either way nothing blocks pool-wide, no acked write is ever
// lost, and the saturation shows up where it should: in that channel's
// p99/p999 or its shed counters.
package pool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/metrics"
	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/fio"
)

// PageSize re-exports the system-wide management granularity.
const PageSize = core.PageSize

// Config parameterizes a pooled socket.
type Config struct {
	// Channels is the memory-channel count (the paper's target board has 6).
	Channels int
	// DIMMsPerChannel multiplies capacity per channel (servers run 2).
	DIMMsPerChannel int
	// Interleave is the stripe granularity in bytes: 4 KB (page) or 2 MB
	// (huge page) are the supported sweep points; any multiple of the page
	// size that divides member capacity works.
	Interleave int64
	// Member configures every (channel, DIMM) core.System identically;
	// per-member RNG streams are split from Seed.
	Member core.Config
	// Window caps in-flight fragments per channel (default 32). Slots
	// recycle at epoch boundaries, so Window/Epoch bounds per-channel
	// throughput; the default leaves ~4x headroom over a cached channel.
	Window int
	// QueueCap bounds each channel's dispatch queue (default 64); beyond it
	// arrivals are held at admission (backpressure).
	QueueCap int
	// Workers caps how many members New builds and prefills concurrently
	// (<=1 serial; output is identical either way). Epochs advance members
	// on the stepping goroutine.
	Workers int
	// Seed master-seeds per-member systems and the dispatch jitter streams.
	Seed uint64
	// PrefillPages seq-writes this many pages per member before the pool
	// opens, making them cache-resident (the NVDC-Cached precondition); -1
	// prefills 90% of each member's slots; 0 skips.
	PrefillPages int
	// WalkFootprint, when nonzero, pins every member's TLB/page-walk cost to
	// this (paper-scale) footprint, as the scaled experiments do.
	WalkFootprint int64
	// MaxEpochs guards Run against a wedged pool (default 1<<22 epochs).
	MaxEpochs int

	// Spares adds hot-spare members beyond Channels x DIMMsPerChannel. They
	// are constructed and prefilled like every other member but receive no
	// traffic until a quarantined member's logical position fails over.
	Spares int
	// FaultSeed, when nonzero, arms a seeded fault registry per member
	// (split per member index, so schedules are independent and worker-count
	// invariant). Zero keeps every member fault-free.
	FaultSeed uint64
	// ArmFaults, when non-nil, is called once per member after its prefill
	// (so prefill traffic never trips rules) to install that member's fault
	// schedule. It may run concurrently across members during New; touch
	// only the given registry. Setting it with FaultSeed == 0 defaults
	// FaultSeed to Seed.
	ArmFaults func(member int, reg *fault.Registry)

	// ProbeEvery runs the member health probe every this many epochs
	// (default 4).
	ProbeEvery int
	// QuarantineFragErrs quarantines a member once this many of its
	// dispatched fragments have failed (default 8).
	QuarantineFragErrs int

	// MaxRetries caps per-fragment redispatch attempts before the request
	// fails with ErrPoolDegraded (default 4; negative disables retries).
	MaxRetries int

	// Admission selects the front-end admission policy (default AdmitBlock,
	// the hold-everything behavior; see plane.go for the shedding policies).
	Admission AdmissionPolicy
	// QoS configures per-tenant token-bucket policing, DRR dispatch and SLO
	// tracking (qos.go). The zero value keeps the legacy tenant-blind path.
	QoS QoSConfig
	// PendingCap bounds each channel's admission-held backlog in fragments
	// under the shedding policies (default 256; AdmitBlock ignores it and
	// holds unbounded).
	PendingCap int

	// Per-channel circuit breaker thresholds; see type breaker.
	BreakerWindow      int          // epochs per closed-state window (default 8)
	BreakerMinSamples  int          // min observations to evaluate a window (default 8)
	BreakerErrRate     float64      // failure fraction that trips (default 0.5)
	BreakerCooldown    int          // epochs open before half-open (default 16)
	BreakerCloseStreak int          // half-open successes to close (default 8)
	BreakerLatency     sim.Duration // completions slower than this count as failures (0 disables)

	// DisableLookahead forces every member advance through the naive
	// event-by-event RunUntil and every epoch through the full boundary
	// body, turning off the member idle-warp, member parking and
	// quiet-epoch batching.
	// The zero value (lookahead on) is the fast path; the knob exists for
	// the byte-identity contract tests and the harness speedup measurement
	// — output is identical either way.
	DisableLookahead bool
}

// DefaultConfig returns a laptop-scale pool: 1 channel x 1 DIMM of the
// default scaled member, 4 KB interleave.
func DefaultConfig() Config {
	return Config{
		Channels:        1,
		DIMMsPerChannel: 1,
		Interleave:      4096,
		Member:          core.DefaultConfig(),
		Seed:            1,
	}
}

func (c *Config) fillDefaults() error {
	if c.Channels < 1 || c.DIMMsPerChannel < 1 {
		return fmt.Errorf("pool: %d channels x %d DIMMs", c.Channels, c.DIMMsPerChannel)
	}
	if c.Interleave == 0 {
		c.Interleave = 4096
	}
	if c.Interleave%PageSize != 0 {
		return fmt.Errorf("pool: interleave %d not a multiple of the %d B page", c.Interleave, PageSize)
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = 1 << 22
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Spares < 0 {
		return fmt.Errorf("pool: %d spares", c.Spares)
	}
	if c.ArmFaults != nil && c.FaultSeed == 0 {
		c.FaultSeed = c.Seed
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 4
	}
	if c.QuarantineFragErrs <= 0 {
		c.QuarantineFragErrs = 8
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.PendingCap <= 0 {
		c.PendingCap = 256
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 8
	}
	if c.BreakerMinSamples <= 0 {
		c.BreakerMinSamples = 8
	}
	if c.BreakerErrRate <= 0 {
		c.BreakerErrRate = 0.5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 16
	}
	if c.BreakerCloseStreak <= 0 {
		c.BreakerCloseStreak = 8
	}
	if err := c.QoS.validate(); err != nil {
		return err
	}
	return nil
}

// request is one front-end op; fragments spanning stripes complete it
// together.
type request struct {
	id      uint64
	arrival sim.Time
	// deadline is the absolute expiry instant (arrival + budget); zero means
	// no deadline. Expiry is evaluated only at epoch boundaries (plane.go).
	deadline  sim.Time
	write     bool
	tenant    int
	bytes     int // total request length: per-tenant goodput metering
	remaining int
	lastDone  sim.Time
	channel0  int // channel of the first fragment: latency attribution
	// err is the first terminal fragment error; a request finishing with
	// err != nil counts as shed, expired or failed by its typed chain,
	// never as completed.
	err error
	// canceled marks a doomed request (shed-oldest victim or expired):
	// waiting fragments are swept at the next boundary, in-flight ones
	// complete and count their pieces.
	canceled bool
	// frag0 is the first fragment and more holds the rest; both live and
	// recycle with the record.
	frag0 fragment
	more  []fragment
}

// fragment is the per-member piece of a request. member is the LOGICAL
// index the decoder assigned; the route table resolves it to a physical
// member at dispatch, so failover retargets queued fragments transparently.
type fragment struct {
	req      *request
	member   int
	off      int64
	n        int
	attempts int
}

// completion is recorded by a member mid-epoch, drained at the boundary.
type completion struct {
	frag *fragment
	phys int // physical member that served it (error attribution)
	at   sim.Time
	err  error
}

// retryEntry is a failed fragment waiting out its backoff.
type retryEntry struct {
	f     *fragment
	ready int // epoch number at which it re-enters admission
}

// member is one (channel, DIMM) system.
type member struct {
	sys *core.System
	tgt *core.FioTarget
	jit *sim.Rand
	// done accumulates completions while the member advances; collect
	// drains it at the boundary.
	done []completion
	// rdone accumulates rebuild-op completions the same way.
	rdone []rebuildEvent
	// opFree recycles dispatch records (memberOp). The boundary pops and the
	// member's completions push while it advances.
	opFree []*memberOp
	// ops counts dispatched memberOps whose completion has not run yet.
	ops int
	// parked marks a quiescent member the pool has stopped advancing: its
	// kernel stands at some earlier boundary, and wake catches it up to the
	// members' boundary before the pool schedules on it or hands it out.
	parked bool
}

// memberOp is one fragment dispatched to a member: the event that starts the
// device op after the host CPU cost, and the completion that books it. Its
// continuations are bound once, when the record is first made.
type memberOp struct {
	m      *member
	frag   *fragment
	phys   int
	runFn  func()
	doneFn func(error)
}

func (op *memberOp) run() {
	f := op.frag
	op.m.tgt.DoE(f.off, f.n, f.req.write, op.doneFn)
}

func (op *memberOp) done(err error) {
	m := op.m
	m.done = append(m.done, completion{frag: op.frag, phys: op.phys, at: m.sys.K.Now(), err: err})
	m.ops--
	op.frag = nil
	m.opFree = append(m.opFree, op)
}

// channelState is the front-end's per-channel scheduler state.
type channelState struct {
	pending  []*fragment // admission-held, FIFO (unbounded under AdmitBlock)
	queue    []*fragment // dispatchable batch, <= QueueCap
	inflight int         // dispatched fragments not yet collected
	brk      *breaker
	// svcBusyAt is the boundary of the first epoch this channel had work;
	// svcDone counts every fragment it has collected since (failures too —
	// they occupied service capacity just the same). Their quotient is the
	// channel's long-run per-fragment service interval: elapsed active time
	// over delivered completions. A long-run quotient is deliberately dumb —
	// a burst of cache hits landing in one epoch cannot drag it below the
	// rate the channel actually sustains while misses serialize on its
	// driver, and a sojourn-time average would lag the very backlog the
	// estimate exists to price.
	svcBusyAt sim.Time
	svcSeen   bool
	svcDone   int64
	// ewma smooths the long-run interval (alpha 1/8, integer arithmetic,
	// folded at collect in canonical channel order). Its reciprocal is the
	// channel's delivered throughput, whatever serializes it (driver queues,
	// breaker budgets, die timeouts), which makes backlog x ewma an estimate
	// of a new fragment's completion wait. During warmup the quotient runs
	// high (cold NAND paths, few completions), so admission errs toward
	// shedding work that would have been late anyway. Zero until the channel
	// has completed work.
	ewma sim.Duration
	// heldHW / queueHW are the run's high-water occupancy marks — the
	// overload observable that used to be invisible until memory grew.
	heldHW  int
	queueHW int
	// tq holds the per-tenant admission FIFOs when QoS isolation is armed
	// (last slot: catch-all for out-of-range tenant indexes); pending stays
	// the tenant-blind held list otherwise. drrNext is the persistent DRR
	// round pointer; drrMid marks a visit cut short by queue room (not
	// credit), which must resume in place without a fresh quantum (qos.go).
	tq      []tenantQueue
	drrNext int
	drrMid  bool
	lat     *metrics.Histogram
	meter   *metrics.Meter
	ctr     *metrics.Counters
	// c holds handles on ctr's per-request counters; the rare ones go by
	// name.
	c chanCounters
}

// chanCounters are handles on the counters every request moves.
type chanCounters struct {
	admitted, held, dispatched, batches, completed metrics.Counter
	outcome                                        [len(requestCounter)]metrics.Counter
}

func newChanCounters(ctr *metrics.Counters) chanCounters {
	c := chanCounters{
		admitted:   ctr.Counter("frags-admitted"),
		held:       ctr.Counter("frags-held"),
		dispatched: ctr.Counter("frags-dispatched"),
		batches:    ctr.Counter("dispatch-batches"),
		completed:  ctr.Counter("frags-completed"),
	}
	for o, name := range requestCounter {
		c.outcome[o] = ctr.Counter(name)
	}
	return c
}

// mark folds the current occupancy into the high-water marks; called at
// every boundary mutation point that can grow a list.
func (ch *channelState) mark() {
	if n := ch.held(); n > ch.heldHW {
		ch.heldHW = n
	}
	if n := len(ch.queue); n > ch.queueHW {
		ch.queueHW = n
	}
}

// Pool is an assembled socket-scale memory pool.
type Pool struct {
	Cfg Config
	Dec *Decoder

	members []*member
	chans   []*channelState
	// svcScratch is collect's reusable per-channel completion-count buffer.
	svcScratch []int
	// fragScratch is Submit's reusable decode buffer; extents are copied
	// into fragments before the next submission reuses it.
	fragScratch []Extent
	// chanScratch is fragsPerChannel's reusable per-channel count buffer
	// (its two callers' lifetimes never overlap).
	chanScratch []int
	// epoch is the lockstep quantum: the member tREFI.
	epoch  sim.Duration
	epoch0 sim.Time
	now    sim.Time
	// boundary is where advanceAll last took the members (a parked member
	// stands at or before it). It equals now except inside StepQuiet's
	// probe, where now is one epoch behind it.
	boundary sim.Time

	// Fault-tolerance state: all boundary-only (single-threaded).
	health     []*memberHealth // per physical member
	route      []int           // logical index -> physical member
	retries    []retryEntry
	rebuilds   []*Copy
	ctrPool    *metrics.Counters  // pool-level fault/failover counters
	latRebuild *metrics.Histogram // request latencies landed while a rebuild ran
	// latMiss holds the lateness overshoot of completed-but-late requests:
	// its tail is the campaign's deadline-miss p99/p999.
	latMiss *metrics.Histogram
	// reqFree recycles request records (with their fragments): a record
	// returns here when its last piece retires (requestPieceDone).
	reqFree []*request
	// out buffers terminal records for Poll.
	out    Outbox
	nextID uint64

	// led books every terminal outcome (ledger.go).
	led Ledger
	// qosT is the per-tenant QoS runtime state (len(Cfg.QoS.Tenants)+1, the
	// last a catch-all; nil when QoS is off). Boundary-only, like all
	// cross-member state.
	qosT []tenantState
	// postQuarantine counts front-end dispatches that reached a quarantined
	// member; probe-before-fill ordering makes this structurally zero and
	// CheckHealth asserts it.
	postQuarantine uint64
	sparesUsed     int
	epochs         int
	heldPeak       int
	// closedFolds counts the channel-epochs StepQuiet folded in closed
	// form (ClosedFormFolds).
	closedFolds int
	// parkedAdvances counts member advances skipped because the member was
	// parked (ParkedAdvances).
	parkedAdvances int
}

// New assembles Channels x DIMMsPerChannel member systems and prefills them
// (on up to cfg.Workers goroutines — construction order is irrelevant to
// state), then aligns their clocks on the first epoch boundary.
func New(cfg Config) (*Pool, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	n := cfg.Channels * cfg.DIMMsPerChannel
	total := n + cfg.Spares
	p := &Pool{Cfg: cfg, members: make([]*member, total), epoch: cfg.Member.TREFI}
	if p.epoch <= 0 {
		p.epoch = 7800 * sim.Nanosecond
	}
	errs := make([]error, total)
	build := func(i int) {
		mcfg := cfg.Member
		mcfg.Seed = sim.SplitSeed(cfg.Seed, fmt.Sprintf("pool/member-%02d", i))
		if cfg.FaultSeed != 0 {
			mcfg.FaultSeed = sim.SplitSeed(cfg.FaultSeed, fmt.Sprintf("pool/fault-%02d", i))
		}
		sys, err := core.NewSystem(mcfg)
		if err != nil {
			errs[i] = fmt.Errorf("member %d: %w", i, err)
			return
		}
		tgt := sys.NewFioTarget()
		pre := cfg.PrefillPages
		if pre < 0 {
			pre = sys.Layout.NumSlots * 9 / 10
		}
		if pre > 0 {
			if err := fio.Prefill(tgt, int64(pre)*PageSize, PageSize); err != nil {
				errs[i] = fmt.Errorf("member %d prefill: %w", i, err)
				return
			}
		}
		// Arm after prefill so the warm-up never trips injected faults.
		if cfg.ArmFaults != nil && sys.Faults != nil {
			cfg.ArmFaults(i, sys.Faults)
		}
		if cfg.WalkFootprint > 0 {
			tgt.SetWalkFootprint(cfg.WalkFootprint)
		}
		tgt.Prepare(tgt.Capacity())
		p.members[i] = &member{
			sys: sys,
			tgt: tgt,
			jit: sim.NewRand(sim.SplitSeed(cfg.Seed, fmt.Sprintf("pool/jitter-%02d", i))),
		}
	}
	// Up to cfg.Workers goroutines, this one included, claim members in turn.
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < total; i = int(next.Add(1)) - 1 {
			build(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(cfg.Workers, total); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Seeded media models mark different bad blocks per member, so usable
	// capacities differ slightly; the pool addresses the least common
	// capacity, rounded down to whole stripes — as a BIOS interleaving
	// mismatched DIMMs would. Spares are included in the min so any spare
	// can host any logical position's stripes.
	memberCap := p.members[0].tgt.Capacity()
	for _, m := range p.members[1:] {
		if c := m.tgt.Capacity(); c < memberCap {
			memberCap = c
		}
	}
	memberCap -= memberCap % cfg.Interleave
	if memberCap <= 0 {
		return nil, fmt.Errorf("pool: member capacity below one %d B stripe", cfg.Interleave)
	}
	dec, err := NewDecoder(n, cfg.Interleave, memberCap)
	if err != nil {
		return nil, err
	}
	p.Dec = dec

	p.health = make([]*memberHealth, total)
	p.route = make([]int, n)
	for i := range p.health {
		h := &memberHealth{logical: -1}
		if i < n {
			h.logical = i
			p.route[i] = i
		} else {
			h.spare = true
		}
		p.health[i] = h
	}
	p.ctrPool = metrics.NewCounters()
	p.latRebuild = metrics.NewHistogram()
	p.latMiss = metrics.NewHistogram()

	// Boot and prefill advance each member by a slightly different amount
	// (seeded media models differ); align all clocks on the latest.
	for _, m := range p.members {
		if t := m.sys.K.Now(); t > p.epoch0 {
			p.epoch0 = t
		}
	}
	for _, m := range p.members {
		m.sys.K.RunUntil(p.epoch0)
	}
	p.now = p.epoch0
	p.boundary = p.epoch0

	p.chans = make([]*channelState, cfg.Channels)
	for i := range p.chans {
		ctr := metrics.NewCounters()
		p.chans[i] = &channelState{
			brk:   newBreaker(&p.Cfg, ctr),
			lat:   metrics.NewHistogram(),
			meter: metrics.NewMeter(p.epoch0),
			ctr:   ctr,
			c:     newChanCounters(ctr),
		}
	}
	p.initQoS()
	return p, nil
}

// Capacity returns the pooled byte-addressable capacity.
func (p *Pool) Capacity() int64 { return p.Dec.Capacity() }

// CachedFootprint returns the largest stripe-aligned pooled footprint whose
// every fragment lands inside the per-member prefilled (cache-resident)
// region — the pooled analogue of the NVDC-Cached precondition.
func (p *Pool) CachedFootprint() int64 {
	pre := p.Cfg.PrefillPages
	if pre < 0 {
		pre = p.members[0].sys.Layout.NumSlots * 9 / 10
	}
	groups := int64(pre) * PageSize / p.Cfg.Interleave
	if groups > p.Dec.groupCount {
		groups = p.Dec.groupCount
	}
	return groups * p.Cfg.Interleave * int64(p.Dec.Members())
}

// channelOf maps a member index to its channel: the decoder interleaves
// across channels first, so adjacent stripes land on adjacent channels.
func (p *Pool) channelOf(memberIdx int) int { return memberIdx % p.Cfg.Channels }

// fill refills a channel's queue from its held list, then dispatches queued
// fragments into the in-flight window, subject to the channel breaker's
// budget. A queued fragment whose routed member is quarantined (possible
// only when no spare covered the position) is rejected with a typed error —
// rejection consumes neither window slots nor breaker budget, so an open
// breaker cannot wedge the queue behind undeliverable fragments.
func (p *Pool) fill(ci int) {
	ch := p.chans[ci]
	if len(ch.tq) > 0 {
		p.fillDRR(ch)
	} else {
		if n := min(len(ch.pending), p.Cfg.QueueCap-len(ch.queue)); n > 0 {
			ch.queue = append(ch.queue, ch.pending[:n]...)
			ch.pending = dropFront(ch.pending, n)
			ch.c.admitted.Add(uint64(n))
		}
	}
	ch.mark()
	budget := ch.brk.budget()
	dispatched := false
	i := 0
	for ; i < len(ch.queue); i++ {
		f := ch.queue[i]
		if phys := p.route[f.member]; p.health[phys].state >= StateQuarantined {
			ch.ctr.Inc("frags-rejected")
			p.fragFailed(f, fmt.Errorf("logical %d -> member %d: %w", f.member, phys, ErrMemberQuarantined), p.now)
			continue
		}
		if ch.inflight >= p.Cfg.Window || budget <= 0 {
			break
		}
		budget--
		ch.inflight++
		ch.c.dispatched.Inc()
		dispatched = true
		p.dispatch(f)
	}
	ch.queue = dropFront(ch.queue, i)
	if dispatched {
		ch.c.batches.Inc()
	}
	if held := ch.held(); held > p.heldPeak {
		p.heldPeak = held
	}
}

// dropFront removes q's first n fragments in place. The FIFOs pop this way
// so they keep their capacity: reslicing q[n:] would strand the front of
// the array, and the next append would grow a new one.
func dropFront(q []*fragment, n int) []*fragment {
	m := copy(q, q[n:])
	clear(q[m:])
	return q[:m]
}

// dispatch schedules one fragment on its member's kernel, first catching a
// parked member up to the boundary: the host CPU cost (plus deterministic
// jitter, drawn here at the boundary in canonical order), then the device
// op. The completion callback runs mid-epoch, while the member advances,
// and only touches member-local state.
func (p *Pool) dispatch(f *fragment) {
	phys := p.route[f.member]
	if p.health[phys].state >= StateQuarantined {
		// fill() filters these before dispatch; counted so CheckHealth can
		// prove the reroute guarantee held.
		p.postQuarantine++
	}
	m := p.members[phys]
	p.wake(m)
	at := f.req.arrival
	if at < p.now {
		at = p.now
	}
	cpu := m.tgt.ThreadCPU(f.n, f.req.write)
	cpu += sim.Duration(m.jit.Int63n(int64(cpu)/2+1)) - sim.Duration(int64(cpu)/4)
	var op *memberOp
	if n := len(m.opFree); n > 0 {
		op = m.opFree[n-1]
		m.opFree = m.opFree[:n-1]
	} else {
		op = &memberOp{m: m}
		op.runFn = op.run
		op.doneFn = op.done
	}
	op.frag, op.phys = f, phys
	m.ops++
	m.sys.K.ScheduleAt(at.Add(cpu), op.runFn)
}

// collect drains every member's completions (member order, then completion
// order — both deterministic), releasing window slots, folding breaker
// observations, and finishing or retrying requests. Rebuild-op completions
// drain on the same pass; finished rebuild jobs are swept afterwards.
func (p *Pool) collect() {
	// Per-channel completion counts this epoch feed the service-interval
	// EWMA after the member loop. Failed fragments count too: they occupied
	// the channel's service capacity just the same.
	if p.svcScratch == nil {
		p.svcScratch = make([]int, len(p.chans))
	}
	svcDone := p.svcScratch
	for i := range svcDone {
		svcDone[i] = 0
	}
	for _, m := range p.members {
		for _, c := range m.done {
			f := c.frag
			ci := p.channelOf(f.member)
			ch := p.chans[ci]
			ch.inflight--
			svcDone[ci]++
			failed := c.err != nil ||
				(p.Cfg.BreakerLatency > 0 && c.at.Sub(f.req.arrival) > p.Cfg.BreakerLatency)
			ch.brk.observe(failed)
			if c.err != nil {
				p.health[c.phys].fragErrs++
				ch.ctr.Inc("frag-errors")
				p.fragFailed(f, c.err, c.at)
				continue
			}
			ch.meter.Record(c.at, f.n)
			ch.c.completed.Inc()
			p.requestPieceDone(f.req, c.at)
		}
		m.done = m.done[:0]
		for _, e := range m.rdone {
			e.job.Outstanding--
			switch {
			case e.err == nil:
			case e.write:
				p.ctrPool.Inc("rebuild-write-fail")
			default:
				p.ctrPool.Inc("rebuild-read-miss")
			}
		}
		m.rdone = m.rdone[:0]
	}
	// Fold this epoch's completions into each channel's long-run service
	// interval and smooth it into the EWMA the deadline-aware admission
	// estimate reads (canonical channel order, integer arithmetic). A
	// channel's clock starts at its first busy epoch — idle time before any
	// work is not evidence of a slow channel.
	end := p.now.Add(p.epoch)
	for ci, ch := range p.chans {
		busy := svcDone[ci] > 0 || ch.inflight > 0 || len(ch.queue) > 0 || ch.held() > 0
		if !ch.svcSeen {
			if !busy {
				continue
			}
			ch.svcSeen = true
			ch.svcBusyAt = p.now
		}
		ch.svcDone += int64(svcDone[ci])
		ch.foldService(end)
	}
	p.sweepRebuilds()
}

// foldService smooths the channel's long-run service interval, measured to
// the boundary end, into its EWMA (a no-op until it has completed work).
func (ch *channelState) foldService(end sim.Time) {
	if ch.svcDone == 0 {
		return
	}
	ch.smooth(end.Sub(ch.svcBusyAt) / sim.Duration(ch.svcDone))
}

// smooth folds one long-run quotient into the EWMA.
func (ch *channelState) smooth(cum sim.Duration) { ch.ewma = smoothed(ch.ewma, cum) }

// smoothed returns ewma with one long-run quotient cum folded in.
func smoothed(ewma, cum sim.Duration) sim.Duration {
	if cum <= 0 {
		cum = 1
	}
	if ewma == 0 {
		return cum
	}
	return ewma + (cum-ewma)/8
}

// quietFold replays foldService across a quiet span without a division per
// epoch: svcDone is fixed over the span and each epoch moves the boundary by
// one Epoch, so the quotient and remainder of (end - svcBusyAt) / svcDone
// advance by Epoch's own quotient and remainder, carried exactly. The zero
// value (d 0) is a channel with no completed work, whose fold is a no-op.
type quietFold struct {
	q, r   sim.Duration // end - svcBusyAt = q*d + r, 0 <= r < d
	dq, dr sim.Duration // Epoch = dq*d + dr
	d      sim.Duration // svcDone
}

// startFold positions a fold at boundary end, which must not precede
// svcBusyAt (it never does: svcBusyAt is a boundary already passed).
func (ch *channelState) startFold(end sim.Time, epoch sim.Duration) quietFold {
	if ch.svcDone == 0 {
		return quietFold{}
	}
	d := sim.Duration(ch.svcDone)
	span := end.Sub(ch.svcBusyAt)
	return quietFold{q: span / d, r: span % d, dq: epoch / d, dr: epoch % d, d: d}
}

// next advances the fold's boundary one epoch and folds the quotient there
// into ch's EWMA, exactly as foldService at that boundary would. run's
// epoch-at-a-time loop is the same step on locals; tests hold run to next.
func (f *quietFold) next(ch *channelState) {
	if f.d == 0 {
		return
	}
	f.q, f.r = f.advance(f.q, f.r)
	ch.smooth(f.q)
}

// advance moves the boundary position (q, r) on by one Epoch.
func (f *quietFold) advance(q, r sim.Duration) (sim.Duration, sim.Duration) {
	q += f.dq
	r += f.dr
	if r >= f.d {
		r -= f.d
		q++
	}
	return q, r
}

// run advances the fold k epochs, exactly as k next calls, and returns how
// many of them it folded in closed form. Let g = q - ewma after a fold.
// The next fold sees x = g + dq + c, with c in {0, 1} the epoch's
// remainder carry, and leaves g' = x - x/8. Inside the band
// 7*dq <= g <= 7*dq+7 that is g' = min(g + c, 7*dq+7), which stays in the
// band, so from there the span needs only its total carry C: q advances by
// k*dq + C and g ends at min(g + C, 7*dq+7). Outside the band — where a
// completion that moved svcDone leaves a channel — it folds one epoch at a
// time, and g closes on the band geometrically (about 7.5*ln|g| epochs).
// The band form also needs smooth's other branches to stay shut: ewma > 0,
// which then stays positive, and the cum <= 0 clamp, which cannot fire
// because g >= 0 puts every quotient at or above ewma. The epoch-at-a-time
// folds work on locals and write back once, the same arithmetic as next.
func (f *quietFold) run(ch *channelState, k int) int {
	if f.d == 0 {
		return 0
	}
	q, r, ewma := f.q, f.r, ch.ewma
	lo := 7 * f.dq
	for ; k > 0; k-- {
		if g := q - ewma; ewma > 0 && g >= lo && g <= lo+7 {
			break
		}
		q, r = f.advance(q, r)
		ewma = smoothed(ewma, q)
	}
	if k > 0 {
		s := r + sim.Duration(k)*f.dr
		c := s / f.d
		g := min(q-ewma+c, lo+7)
		q += sim.Duration(k)*f.dq + c
		r = s % f.d
		ewma = q - g
	}
	f.q, f.r, ch.ewma = q, r, ewma
	return k
}

// RetryBackoff returns the delay, in epochs, before retry attempt n
// (1-based): one epoch, doubling per attempt, capped at eight. The pool
// re-dispatches fragments and the NUMA fabric re-dispatches requests on
// this one schedule.
func RetryBackoff(n int) int {
	const first, max = 1, 8
	if d := first << (n - 1); d <= max {
		return d
	}
	return max
}

// fragFailed routes one failed (or quarantine-rejected) fragment: back into
// the retry queue with capped exponential backoff while budget remains,
// terminal otherwise. A fragment whose request is already doomed (canceled
// by shedding or expiry) or whose next retry cannot land inside the
// request's deadline is terminal immediately — no backoff epochs are burnt
// on work that cannot count. Terminal failures stamp the request with a
// typed chain and count the piece done — the request finishes, never
// lingers.
func (p *Pool) fragFailed(f *fragment, err error, at sim.Time) {
	ch := p.chans[p.channelOf(f.member)]
	r := f.req
	if r.canceled {
		ch.ctr.Inc("frags-canceled")
		p.requestPieceDone(r, at)
		return
	}
	f.attempts++
	if f.attempts <= p.Cfg.MaxRetries {
		delay := RetryBackoff(f.attempts)
		if r.deadline > 0 {
			// Earliest the retry can finish: backoff epochs out, plus one
			// smoothed service interval. Past the deadline, re-arming only
			// burns epochs — fail the request typed now.
			eta := p.now.Add(sim.Duration(delay) * p.epoch).Add(ch.ewma)
			if eta > r.deadline {
				ch.ctr.Inc("frags-retry-expired")
				p.cancelRequest(r, fmt.Errorf("pool: retry %d cannot land inside deadline: %w (last error: %w)",
					f.attempts, ErrDeadlineExceeded, err))
				p.requestPieceDone(r, at)
				return
			}
		}
		p.retries = append(p.retries, retryEntry{f: f, ready: p.epochs + delay})
		ch.ctr.Inc("frags-retried")
		return
	}
	ch.ctr.Inc("frags-failed")
	if r.err == nil {
		r.err = fmt.Errorf("%w (%d attempts): %w", ErrPoolDegraded, f.attempts, err)
	}
	p.requestPieceDone(r, at)
}

// requestPieceDone retires one fragment outcome (success, sweep, or
// terminal failure) against its request and finishes the request when it
// was the last: the ledgers classify it by its typed error chain, and a
// completion records its latency, and its lateness when it landed past its
// deadline.
func (p *Pool) requestPieceDone(r *request, at sim.Time) {
	if at > r.lastDone {
		r.lastDone = at
	}
	r.remaining--
	if r.remaining > 0 {
		return
	}
	ch0 := p.chans[r.channel0]
	ts := p.qosTenant(r.tenant)
	late := r.deadline > 0 && r.lastDone > r.deadline
	rec := Completion{
		ID:      r.id,
		Tenant:  r.tenant,
		Write:   r.write,
		Outcome: p.retire(ch0, ts, r.write, late, r.err),
		Err:     r.err,
		At:      r.lastDone,
		Latency: r.lastDone.Sub(r.arrival),
	}
	if rec.Outcome == OutcomeCompleted {
		lat := rec.Latency
		ch0.lat.Record(lat)
		if len(p.rebuilds) > 0 {
			p.latRebuild.Record(lat)
		}
		if ts != nil {
			ts.lat.Record(lat)
			ts.meter.Record(r.lastDone, r.bytes)
			if ts.cfg.SLOP99 > 0 && lat > ts.cfg.SLOP99 {
				ts.overSLO++
			}
		}
		if late {
			rec.Late = true
			rec.Lateness = r.lastDone.Sub(r.deadline)
			p.latMiss.Record(rec.Lateness)
			ch0.ctr.Inc("requests-late")
		}
	}
	p.out.Add(rec)
	// Every piece is collected, swept or failed, so no queue, retry entry
	// or member op still refers to r or its fragments. The record is not
	// cleared: newRequest overwrites it whole.
	p.reqFree = append(p.reqFree, r)
}

// poolTyped lists the sentinels that make a pool failure typed.
var poolTyped = []error{ErrPoolDegraded, ErrMemberQuarantined}

// requestCounter names each outcome's per-channel request counter.
var requestCounter = [...]string{
	OutcomeCompleted: "requests-completed",
	OutcomeShed:      "requests-shed",
	OutcomeExpired:   "requests-expired",
	OutcomeFailed:    "requests-failed",
	OutcomeThrottled: "requests-throttled",
}

// retire books one terminal request in the pool ledger, its tenant's
// ledger (nil when QoS is off) and ch's request counter.
func (p *Pool) retire(ch *channelState, ts *tenantState, write, late bool, err error) Outcome {
	o := p.led.Retire(write, late, err, poolTyped)
	if ts != nil {
		ts.led.Retire(write, late, err, poolTyped)
	}
	ch.c.outcome[o].Inc()
	return o
}

// promoteRetries re-admits backoff-expired fragments (retry-queue order,
// behind any admission-held arrivals) before the epoch's fill pass.
func (p *Pool) promoteRetries() {
	if len(p.retries) == 0 {
		return
	}
	keep := p.retries[:0]
	for _, e := range p.retries {
		if e.ready > p.epochs {
			keep = append(keep, e)
			continue
		}
		ci := p.channelOf(e.f.member)
		ch := p.chans[ci]
		if p.Cfg.Admission == AdmitShedOldest {
			p.displaceOldest(ch, ci)
		}
		if len(ch.tq) > 0 {
			qi := p.qosIndex(e.f.req.tenant)
			ch.tq[qi].fifo = append(ch.tq[qi].fifo, e.f)
		} else {
			ch.pending = append(ch.pending, e.f)
		}
		ch.ctr.Inc("frags-repromoted")
		ch.mark()
	}
	p.retries = keep
}

// Step advances the plane one epoch: boundary bookkeeping (deadline expiry,
// retry promotion, queue fill, rebuild issue) in canonical channel order,
// then every member kernel to the next boundary in member order, then
// completion collection, health probes and breaker ticks. The records of
// the requests it retired wait for Poll, in deterministic order.
func (p *Pool) Step() {
	p.epochs++
	epochEnd := p.now.Add(p.epoch)
	p.refillTokens(1)
	p.expireAndSweep()
	p.promoteRetries()
	for ci := range p.chans {
		p.fill(ci)
	}
	p.issueRebuilds()
	p.advanceAll(epochEnd)
	p.collect()
	p.probeMembers()
	for _, ch := range p.chans {
		ch.brk.tick()
	}
	p.now = epochEnd
}

// advanceAll runs every member kernel to the boundary at to, in canonical
// member order on the calling goroutine (an epoch is one tREFI of member
// work, too little to pay for handing it to other goroutines). With
// lookahead on, a member advances through the cross-layer idle warp
// (core.FastForwardIdle), and one left quiescent with nothing of the pool's
// outstanding on it is parked: later calls skip it until wake catches it
// up. Lockstep advances every member event by event and never parks.
func (p *Pool) advanceAll(to sim.Time) {
	p.boundary = to
	for i, m := range p.members {
		switch {
		case m.parked:
			p.parkedAdvances++
		case p.Cfg.DisableLookahead:
			m.sys.K.RunUntil(to)
		default:
			m.sys.FastForwardIdle(to)
			// An op in flight keeps events queued, so Quiescent alone would
			// refuse such a member; the pool checks its own books as well
			// rather than lean on the member model for that.
			m.parked = m.ops == 0 && len(m.done) == 0 && len(m.rdone) == 0 &&
				!p.rebuilding(i) && m.sys.Quiescent()
		}
	}
}

// wake catches a parked member up to the members' boundary. Every place the
// pool schedules on a member or hands one out calls it first: dispatch,
// rebuildOp, Member and CheckHealth. One FastForwardIdle over the whole
// parked span is exact: it equals RunUntil by contract, and RunUntil to the
// boundary equals running it to each boundary the member skipped.
//
// Reads that idle refresh cycles cannot change need no catch-up, so Probe,
// ProbeSteady, probesIdle, probeMembers, Stats, ResidentPooled and failover
// read a parked member as it stands. They read only driver error events,
// mode and resident set (Driver.ErrorEvents, Mode, Health, Resident) and
// auditor violations (Auditor.ViolationCount); a quiescent member's
// refresh cycles are clean and leave the driver untouched (see probesIdle).
func (p *Pool) wake(m *member) {
	if m.parked {
		m.sys.FastForwardIdle(p.boundary)
		m.parked = false
	}
}

// QuietEpochs reports how many upcoming epochs — at most limit — are
// provably quiet: no boundary pass can change front-end state, so the whole
// span may be replayed in one batch (StepQuiet) with byte-identical results.
// Quiet requires an empty front end: no held, queued or in-flight fragment
// on any channel and no active rebuild. The horizon is then bounded by the
// next cross-member event that needs a real boundary:
//
//   - the next health-probe epoch, but only when a probe could act. A probe
//     snapshots error counters and advances Suspect clean-streaks, so a
//     batch may end on such a probe epoch (StepQuiet runs the probe there)
//     but never jump one. When every member probe in the span provably takes
//     the no-op path (probesIdle), the bound is dropped and the batch jumps
//     probe epochs;
//   - each backoff retry's ready epoch, minus one: the promoting boundary
//     must be a real step so the promoted fragment meets fill();
//   - each waiting retry's request deadline: expiry at epoch j compares the
//     deadline against the previous boundary, so the batch may include
//     every epoch whose expiry check still precedes the deadline and must
//     stop before the sweep that dooms the request. A retry whose request
//     is already canceled disqualifies batching outright — its sweep is due
//     at the very next boundary;
//   - an open breaker's cooldown expiry: the half-open transition restores
//     dispatch budget and must land at or before the batch's final
//     replayed tick, never silently inside the span.
//
// Callers additionally bound limit by MaxEpochs and the next arrival; an
// embedding plane (the NUMA fabric) also bounds it by its own boundary
// events. A result below 2 means "take a plain Step". Like Step, call it
// only at an epoch boundary.
func (p *Pool) QuietEpochs(limit int) int {
	if p.Cfg.DisableLookahead || limit <= 1 {
		return 0
	}
	if len(p.rebuilds) > 0 {
		return 0
	}
	for _, ch := range p.chans {
		if ch.held()+len(ch.queue)+ch.inflight != 0 {
			return 0
		}
	}
	k := limit
	if d := (p.epochs/p.Cfg.ProbeEvery+1)*p.Cfg.ProbeEvery - p.epochs; d < k && !p.probesIdle() {
		k = d
	}
	for _, e := range p.retries {
		if e.f.req.canceled {
			return 0
		}
		if d := e.ready - p.epochs - 1; d < k {
			k = d
		}
		if dl := e.f.req.deadline; dl > 0 {
			if dl <= p.now {
				return 0
			}
			if d := int((dl.Sub(p.now)-1)/p.epoch) + 1; d < k {
				k = d
			}
		}
	}
	for _, ch := range p.chans {
		if h, ok := ch.brk.quietHorizon(); ok && h < k {
			k = h
		}
	}
	if k < 0 {
		return 0
	}
	return k
}

// StepQuiet advances the pool k quiet epochs (QuietEpochs' preconditions)
// in one pass: every unparked member kernel runs — and warps — straight to
// the final boundary (parked members stay put until touched), and the
// per-epoch boundary effects that still tick in an idle pool are replayed
// exactly, in O(channels + tenants) rather than once per epoch: the epoch counter, the per-tenant token-bucket refills (the same
// one-addition-per-epoch sequence Step performs, cut short once a bucket
// stops moving, so bucket levels stay bit-identical to the naive path),
// each busy-before channel's service-interval EWMA fold (collect folds the
// long-run quotient every epoch once a channel has completed work, idle
// epochs included; quietFold.run replays the span, in closed form once the
// fold settles), and the breaker FSMs (breaker.ticks). Channels, breakers
// and tenant buckets share no state, so the replay runs channel by channel.
// Every other boundary pass (expiry sweep, retry promotion, fill, rebuild
// issue, collect's drain, completion delivery) is a no-op on a quiet pool,
// and so is every probe epoch inside the span (QuietEpochs jumps one only
// when probesIdle proves it). The final epoch may be a probe epoch:
// probeMembers runs after the members have advanced, self-gated on the
// epoch counter, with p.now at the same epoch-start boundary Step would
// give it. k must not exceed what QuietEpochs just reported at this
// boundary: StepQuiet trusts the caller and does not re-check the span.
func (p *Pool) StepQuiet(k int) {
	end := p.now.Add(sim.Duration(k) * p.epoch)
	p.advanceAll(end)
	p.epochs += k
	p.refillTokens(k)
	for _, ch := range p.chans {
		f := ch.startFold(p.now, p.epoch)
		p.closedFolds += f.run(ch, k)
		ch.brk.ticks(k)
	}
	p.now = end.Add(-p.epoch)
	p.probeMembers()
	p.now = end
}

// ClosedFormFolds returns how many channel-epochs of EWMA folding quiet
// spans have replayed in closed form. It is a lookahead diagnostic, kept
// out of Stats so lockstep and lookahead runs stay byte-comparable: the
// lockstep-vs-lookahead tests read it to prove they cover that branch.
func (p *Pool) ClosedFormFolds() int { return p.closedFolds }

// ParkedAdvances returns how many member advances were skipped because the
// member was parked. Like ClosedFormFolds it is a lookahead diagnostic kept
// out of Stats; it stays 0 under lockstep.
func (p *Pool) ParkedAdvances() int { return p.parkedAdvances }

// Stats is the pool-level aggregate plus the per-channel breakdown.
type Stats struct {
	// Lat holds request latencies (arrival to last-fragment completion).
	Lat *metrics.Histogram
	// LatRebuild shadows Lat for requests that completed while a rebuild
	// was active: the p99 here is the rebuild-interference tail.
	LatRebuild *metrics.Histogram
	// LatMiss holds the lateness overshoot of completed-but-late requests;
	// its p99/p999 is the deadline-miss tail the overload campaign tables.
	LatMiss *metrics.Histogram
	// Meter aggregates completed bytes over the pooled measurement span
	// (min start / max end across channels, not the double-counting sum).
	Meter *metrics.Meter
	// Ctr merges the per-channel scheduler counters and the pool-level
	// fault/failover counters.
	Ctr *metrics.Counters
	// PerChannel carries each channel's own view, channel order.
	PerChannel []ChannelStats
	// PerMember carries each physical member's health view, member order
	// (logical members first, then spares).
	PerMember []MemberStats

	// Ledger books every terminal outcome; Completed + Failed + Shed +
	// Expired + Throttled == Submitted once the pool drains.
	Ledger
	// PerTenant carries each configured QoS tenant's view, tenant order
	// (nil when Cfg.QoS is off).
	PerTenant []TenantStats
	// PostQuarantineDispatches must be zero: no fragment was dispatched to
	// an already-quarantined member.
	PostQuarantineDispatches uint64
	Quarantined              int
	Evacuated                int
	SparesUsed               int
	Epochs                   int
	// HeldPeak is the deepest any channel's admission-held backlog got.
	HeldPeak int
}

// ChannelStats is one channel's front-end view.
type ChannelStats struct {
	Lat   *metrics.Histogram
	Meter *metrics.Meter
	Ctr   *metrics.Counters
	// Breaker is the channel breaker's final state (closed / open /
	// half-open).
	Breaker string
	// HeldHW / QueueHW are the run's high-water occupancy marks for the
	// admission-held list and the dispatch queue.
	HeldHW  int
	QueueHW int
	// ServiceEWMA is the final smoothed fragment service interval.
	ServiceEWMA sim.Duration
}

// MemberStats is one physical member's health view.
type MemberStats struct {
	State MemberState
	Spare bool
	// InService: a spare that took over a logical position.
	InService bool
	// Logical is the logical index currently routed here (-1 if none).
	Logical int
	// Mode is the member driver's degradation mode.
	Mode nvdc.Mode
	// DriverErrors totals the driver's error counters.
	DriverErrors uint64
	// FragErrors counts fragment dispatches that failed on this member.
	FragErrors int
	// Reason records why the member was quarantined ("" while serving).
	Reason string
}

// Stats merges the per-channel stats into the pool view using the metrics
// Merge primitives (no sample is re-recorded).
func (p *Pool) Stats() Stats {
	s := Stats{
		Lat:                      p.Latency(),
		LatRebuild:               p.latRebuild,
		LatMiss:                  p.latMiss,
		Meter:                    metrics.NewMeter(p.epoch0),
		Ctr:                      metrics.NewCounters(),
		Ledger:                   p.led,
		PerTenant:                p.tenantStats(),
		PostQuarantineDispatches: p.postQuarantine,
		SparesUsed:               p.sparesUsed,
		Epochs:                   p.epochs,
		HeldPeak:                 p.heldPeak,
	}
	for _, ch := range p.chans {
		s.Meter.Merge(ch.meter)
		s.Ctr.Merge(ch.ctr)
		s.PerChannel = append(s.PerChannel, ChannelStats{
			Lat: ch.lat, Meter: ch.meter, Ctr: ch.ctr, Breaker: ch.brk.state.String(),
			HeldHW: ch.heldHW, QueueHW: ch.queueHW, ServiceEWMA: ch.ewma,
		})
	}
	s.Ctr.Merge(p.ctrPool)
	for i, m := range p.members {
		h := p.health[i]
		switch h.state {
		case StateQuarantined:
			s.Quarantined++
		case StateEvacuated:
			s.Evacuated++
		}
		hs := m.sys.Driver.Health()
		s.PerMember = append(s.PerMember, MemberStats{
			State:        h.state,
			Spare:        h.spare,
			InService:    h.inService,
			Logical:      h.logical,
			Mode:         hs.Mode,
			DriverErrors: hs.ErrorEvents,
			FragErrors:   h.fragErrs,
			Reason:       h.reason,
		})
	}
	return s
}

// Latency merges the channels' request-latency histograms (Stats.Lat).
func (p *Pool) Latency() *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, ch := range p.chans {
		h.Merge(ch.lat)
	}
	return h
}

// Member exposes member i's system (tests and health checks), caught up to
// the current boundary first. A parked member stops advancing with the
// pool, so the system is current only until the next Step or StepQuiet:
// call Member again after one rather than keeping the pointer's view.
func (p *Pool) Member(i int) *core.System {
	m := p.members[i]
	p.wake(m)
	return m.sys
}

// Members returns the member count.
func (p *Pool) Members() int { return len(p.members) }

// CheckHealth runs every serving member's CheckHealth and the pool's own
// conservation invariants: every submitted request reached exactly one
// terminal outcome — completed, shed, expired, or failed, the latter three
// typed (nothing silently dropped) — every write either acked or
// typed-terminal, no fragment stranded in a queue, window, retry queue or
// rebuild, and no fragment dispatched to a quarantined member. Quarantined
// and evacuated members are exempt from the per-member check — containing
// their sickness is the pool's job, and it did.
func (p *Pool) CheckHealth() error {
	if err := p.led.Check(); err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	if err := p.checkQoSConservation(); err != nil {
		return err
	}
	if p.postQuarantine != 0 {
		return fmt.Errorf("pool: %d fragments dispatched to quarantined members", p.postQuarantine)
	}
	if p.Cfg.Admission == AdmitShedOldest {
		// Displacement now happens before each append, so held occupancy —
		// and therefore its high-water mark — never exceeds PendingCap.
		for i, ch := range p.chans {
			if ch.heldHW > p.Cfg.PendingCap {
				return fmt.Errorf("pool: channel %d held high-water %d over PendingCap %d under shed-oldest",
					i, ch.heldHW, p.Cfg.PendingCap)
			}
		}
	}
	if len(p.retries) != 0 {
		return fmt.Errorf("pool: %d fragments stranded in retry backoff", len(p.retries))
	}
	if len(p.rebuilds) != 0 {
		return fmt.Errorf("pool: %d rebuild jobs still active", len(p.rebuilds))
	}
	for i, ch := range p.chans {
		if ch.held() != 0 || len(ch.queue) != 0 || ch.inflight != 0 {
			return fmt.Errorf("pool: channel %d left held=%d queued=%d inflight=%d",
				i, ch.held(), len(ch.queue), ch.inflight)
		}
	}
	for i, m := range p.members {
		p.wake(m)
		if p.health[i].state >= StateQuarantined {
			continue
		}
		if err := m.sys.CheckHealth(); err != nil {
			return fmt.Errorf("pool: member %d: %w", i, err)
		}
	}
	return nil
}
