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
	"math"
	"math/bits"
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
	// Workers caps how many members New builds and prefills concurrently
	// (<=1 serial; output is identical either way). Epochs advance members
	// on the stepping goroutine.
	Workers int
	// Seed master-seeds per-member systems and the dispatch jitter streams.
	Seed uint64
	// PrefillPages seq-writes this many pages per member before the pool
	// opens, making them cache-resident (the NVDC-Cached precondition); -1
	// prefills each member's hostmem.Layout.CachedPages; 0 skips.
	PrefillPages int
	// WalkFootprint, when nonzero, pins every member's TLB/page-walk cost to
	// this (paper-scale) footprint, as the scaled experiments do.
	WalkFootprint int64
	// MaxEpochs is the wedge guard: the most epochs one Run or Drain call
	// may take (default DefaultMaxEpochs).
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

// Window caps in-flight fragments per channel. Slots recycle at epoch
// boundaries, so Window/Epoch bounds per-channel throughput; 32 leaves ~4x
// headroom over a cached channel. QueueCap bounds each channel's dispatch
// queue; beyond it arrivals are held at admission (backpressure).
const (
	Window   = 32
	QueueCap = 64
)

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
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = DefaultMaxEpochs
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

// completion is recorded by a member mid-epoch, drained at the boundary.
type completion struct {
	frag *Piece
	phys int // physical member that served it (error attribution)
	at   sim.Time
	err  error
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
}

// memberOp is one fragment dispatched to a member: the event that starts the
// device op after the host CPU cost, and the completion that books it. Its
// continuations are bound once, when the record is first made.
type memberOp struct {
	m      *member
	frag   *Piece
	phys   int
	runFn  func()
	doneFn func(error)
}

func (op *memberOp) run() {
	f := op.frag
	op.m.tgt.DoE(f.Off, f.N, f.Req.Write, op.doneFn)
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
	pending  []*Piece // admission-held, FIFO (unbounded under AdmitBlock)
	queue    []*Piece // dispatchable batch, <= QueueCap
	inflight int      // dispatched fragments not yet collected
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
	// parked marks a channel with nothing held, queued or in flight: Step,
	// StepQuiet and QuietEpochs skip it, and its EWMA and breaker stand at
	// the boundary parkedAt until catchUp brings them to the current one.
	// settled records that its breaker parked closed and not trip-ready,
	// which no run of ticks changes (breakerOf).
	parked, settled bool
	parkedAt        sim.Time
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

// idle reports whether the channel holds, queues and has in flight nothing.
func (ch *channelState) idle() bool { return ch.held()+len(ch.queue)+ch.inflight == 0 }

// Pool is an assembled socket-scale memory pool.
type Pool struct {
	// Front is the plane's front end: the epoch clock, whose quantum is
	// the member tREFI, the request IDs, the ledger and the outbox.
	Front
	Cfg Config
	Dec *Decoder
	// window and queueCap are Window and QueueCap; in-package tests narrow
	// them to reach backpressure and shedding with a handful of requests.
	window, queueCap int

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

	// sup supervises the members: their health lattice and probes, parking,
	// the epoch count and the fragment retry queue (supervisor.go).
	sup Supervisor[memberProbe]
	// Fault-tolerance state: all boundary-only (single-threaded).
	health     []*memberHealth    // per physical member
	route      []int              // logical index -> physical member
	ctrPool    *metrics.Counters  // pool-level fault/failover counters
	latRebuild *metrics.Histogram // request latencies landed while a rebuild ran
	// latMiss holds the lateness overshoot of completed-but-late requests:
	// its tail is the campaign's deadline-miss p99/p999.
	latMiss *metrics.Histogram
	// qosT is the per-tenant QoS runtime state (len(Cfg.QoS.Tenants)+1, the
	// last a catch-all; nil when QoS is off). Boundary-only, like all
	// cross-member state.
	qosT []tenantState
	// postQuarantine counts front-end dispatches that reached a quarantined
	// member; probe-before-fill ordering makes this structurally zero and
	// CheckHealth asserts it.
	postQuarantine uint64
	sparesUsed     int
	heldPeak       int
	// closedFolds counts the channel-epochs catchUp folded in closed form
	// (ClosedFormFolds).
	closedFolds int
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
	p := &Pool{Cfg: cfg, window: Window, queueCap: QueueCap, members: make([]*member, total)}
	epoch := cfg.Member.TREFI
	if epoch <= 0 {
		epoch = 7800 * sim.Nanosecond
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
			pre = sys.Layout.CachedPages()
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
	p.sup = NewSupervisor[memberProbe](memberLevel{p}, total, cfg.ProbeEvery, 0,
		RetryPolicy{Epoch: epoch, Degraded: ErrPoolDegraded,
			Counters: [...]string{"frags-retried", "frags-canceled", "frags-failed", "frags-retry-expired"}},
		p.ctrPool, "member", "member-quarantine")
	p.latRebuild = metrics.NewHistogram()
	p.latMiss = metrics.NewHistogram()

	// Boot and prefill advance each member by a slightly different amount
	// (seeded media models differ); align all clocks on the latest.
	var origin sim.Time
	for _, m := range p.members {
		origin = max(origin, m.sys.K.Now())
	}
	for _, m := range p.members {
		m.sys.K.RunUntil(origin)
	}
	p.Front = NewFront(epoch, origin, cfg.MaxEpochs)

	p.chans = make([]*channelState, cfg.Channels)
	for i := range p.chans {
		ctr := metrics.NewCounters()
		p.chans[i] = &channelState{
			brk:      newBreaker(&p.Cfg, ctr),
			lat:      metrics.NewHistogram(),
			meter:    metrics.NewMeter(p.origin),
			ctr:      ctr,
			c:        newChanCounters(ctr),
			parked:   !cfg.DisableLookahead,
			settled:  true,
			parkedAt: p.origin,
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
		pre = p.members[0].sys.Layout.CachedPages()
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
		if n := min(len(ch.pending), p.queueCap-len(ch.queue)); n > 0 {
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
		if phys := p.route[f.Member]; p.sup.Kids[phys].State >= HealthCondemned {
			ch.ctr.Inc("frags-rejected")
			p.fragFailed(f, fmt.Errorf("logical %d -> member %d: %w", f.Member, phys, ErrMemberQuarantined), p.now)
			continue
		}
		if ch.inflight >= p.window || budget <= 0 {
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
func dropFront(q []*Piece, n int) []*Piece {
	m := copy(q, q[n:])
	clear(q[m:])
	return q[:m]
}

// dispatch schedules one fragment on its member's kernel, first catching a
// parked member up to the boundary: the host CPU cost (plus deterministic
// jitter, drawn here at the boundary in canonical order), then the device
// op. The completion callback runs mid-epoch, while the member advances,
// and only touches member-local state.
func (p *Pool) dispatch(f *Piece) {
	phys := p.route[f.Member]
	if p.sup.Kids[phys].State >= HealthCondemned {
		// fill() filters these before dispatch; counted so CheckHealth can
		// prove the reroute guarantee held.
		p.postQuarantine++
	}
	m := p.members[phys]
	p.sup.Wake(phys)
	at := max(f.Req.Arrival, p.now)
	cpu := m.tgt.ThreadCPU(f.N, f.Req.Write)
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
// drain on the same pass, a failed victim read or spare write counted
// (rebuild-read-miss, rebuild-write-fail) and never retried: the pool
// carries no redundancy to reconstruct it from. The supervisor sweeps
// drained rebuilds afterwards (Settle).
func (p *Pool) collect() {
	// Per-channel completion counts this epoch feed the service-interval
	// EWMA after the member loop. Failed fragments count too: they occupied
	// the channel's service capacity just the same.
	if p.svcScratch == nil {
		p.svcScratch = make([]int, len(p.chans))
	}
	svcDone := p.svcScratch
	for _, m := range p.members {
		for _, c := range m.done {
			f := c.frag
			ci := p.channelOf(f.Member)
			ch := p.chans[ci]
			ch.inflight--
			svcDone[ci]++
			failed := c.err != nil ||
				(p.Cfg.BreakerLatency > 0 && c.at.Sub(f.Req.Arrival) > p.Cfg.BreakerLatency)
			ch.brk.observe(failed)
			if c.err != nil {
				p.health[c.phys].fragErrs++
				ch.ctr.Inc("frag-errors")
				p.fragFailed(f, c.err, c.at)
				continue
			}
			ch.meter.Record(c.at, f.N)
			ch.c.completed.Inc()
			p.requestPieceDone(f.Req, c.at, nil)
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
	// work is not evidence of a slow channel. A parked channel completes
	// nothing; catchUp folds its epochs later.
	end := p.now.Add(p.epoch)
	for ci, ch := range p.chans {
		if ch.parked {
			continue
		}
		n := svcDone[ci]
		svcDone[ci] = 0
		busy := n > 0 || ch.inflight > 0 || len(ch.queue) > 0 || ch.held() > 0
		if !ch.svcSeen {
			if !busy {
				continue
			}
			ch.svcSeen = true
			ch.svcBusyAt = p.now
		}
		ch.svcDone += int64(n)
		ch.foldService(end)
	}
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
// many of them it folded in closed form. Let h = q - ewma - 7*dq after a
// fold. The next fold sees x = h + 8*dq + c, with c in {0, 1} the epoch's
// remainder carry, and for x >= 0 leaves h' = y - floor(y/8), y = h + c.
// On 0 <= h <= 14 that is min(h + c, 7) up to 7 and h - 1 + c above it:
// carries fill the band [0, 7] to its cap and carry-free epochs drain
// [8, 14] down to it, and h never leaves [0, 14]. So with C the span's
// total carry, h ends at min(h + C, 7) or max(h - (k - C), 7), and q
// advances by k*dq + C. Above 14, h - 14 shrinks by at least 1/8 each
// epoch. Below 0, with dq >= 1, -7 - h does too while positive, and from
// -7 each epoch raises h by at least one, to 0 without overshooting.
// Either way h is in [0, 14] within enter(h) epochs, and seven carries and
// seven carry-free epochs after that leave h = 7 whatever the path. When
// the span holds them, the end state is q + k*dq + C with ewma 7*dq + 7
// below it. Otherwise the epochs outside [0, 14] fold one at a time, on locals
// written back once, the same arithmetic as next, and so does every epoch
// where smooth's other branches could open: the closed forms need
// ewma > 0 and quotients >= 1 (h > 0 or dq >= 1 gives q + dq >= 1), and
// both then hold for the rest of the span, since quotients never fall and
// the EWMA never drops below the quotient it folds.
func (f *quietFold) run(ch *channelState, k int) int {
	if f.d == 0 {
		return 0
	}
	q, r, ewma := f.q, f.r, ch.ewma
	lo := 7 * f.dq
	if h := q - ewma - lo; (h < 0 || h > 14) && ewma > 0 && (h > 0 || f.dq > 0) {
		if n := enter(h); n < k {
			cn, ck := f.carries(n), f.carries(k)
			if ck-cn >= 7 && sim.Duration(k-n)-(ck-cn) >= 7 {
				s := r + sim.Duration(k)*f.dr
				q += sim.Duration(k)*f.dq + ck
				f.q, f.r, ch.ewma = q, s%f.d, q-lo-7
				return k
			}
		}
	}
	for ; k > 0; k-- {
		if h := q - ewma - lo; ewma > 0 && h >= 0 && h <= 14 {
			break
		}
		q, r = f.advance(q, r)
		ewma = smoothed(ewma, q)
	}
	if k > 0 {
		s := r + sim.Duration(k)*f.dr
		c := s / f.d
		h := q - ewma - lo
		if h <= 7 {
			h = min(h+c, 7)
		} else {
			h = max(h-(sim.Duration(k)-c), 7)
		}
		q += sim.Duration(k)*f.dq + c
		r = s % f.d
		ewma = q - lo - h
	}
	f.q, f.r, ch.ewma = q, r, ewma
	return k
}

// carries returns how many of the fold's next n epochs carry a remainder.
func (f *quietFold) carries(n int) sim.Duration { return (f.r + sim.Duration(n)*f.dr) / f.d }

// enter bounds the epochs h needs to reach [0, 14] from outside it: the
// distance shrinks by 1/8 per epoch, 1/log2(8/7) < 6 epochs per bit, and
// the last seven steps below the band move h by at least one each.
func enter(h sim.Duration) int { return 6*bits.Len64(uint64(max(h, -h))) + 8 }

// fragFailed routes one failed (or quarantine-rejected) fragment through
// the retry decision (Supervisor.Retry), whose ETA term is the channel's
// smoothed service interval. A terminal fragment stamps its request with
// the typed chain and counts its piece done: the request finishes, never
// lingers. A retry that cannot land inside the deadline also cancels the
// request, so its waiting fragments are swept at the next boundary.
func (p *Pool) fragFailed(f *Piece, err error, at sim.Time) {
	ch := p.chans[p.channelOf(f.Member)]
	v, err := p.sup.Retry(f, err, p.now, ch.ewma, ch.ctr)
	if v == RetryInfeasible {
		p.cancelRequest(f.Req, err)
	}
	if v != RetryQueued {
		p.requestPieceDone(f.Req, at, err)
	}
}

// requestPieceDone folds one fragment outcome (success, sweep, or terminal
// failure err) into its request (Request.Fold) and finishes the request
// when it was the last (Front.Finish): the ledgers classify it by its
// typed error chain, and a completion records its latency, and its
// lateness when it landed past its deadline.
func (p *Pool) requestPieceDone(r *Request, at sim.Time, err error) {
	if !r.Fold(at, err) {
		return
	}
	ch0 := p.chans[r.Home]
	ts := p.qosTenant(r.Tenant)
	rec := p.Finish(r, poolTyped)
	tally(ch0, ts, r.Write, r.Late(), r.Err, rec.Outcome)
	if rec.Outcome == OutcomeCompleted {
		lat := rec.Latency
		ch0.lat.Record(lat)
		if len(p.sup.Jobs) > 0 {
			p.latRebuild.Record(lat)
		}
		if ts != nil {
			ts.lat.Record(lat)
			ts.meter.Record(r.LastDone, r.Bytes)
			if ts.cfg.SLOP99 > 0 && lat > ts.cfg.SLOP99 {
				ts.overSLO++
			}
		}
		if rec.Late {
			p.latMiss.Record(rec.Lateness)
			ch0.ctr.Inc("requests-late")
		}
	}
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

// tally books a terminal request, whose outcome o the pool ledger already
// holds, in its tenant's ledger (nil when QoS is off) and ch's request
// counter.
func tally(ch *channelState, ts *tenantState, write, late bool, err error, o Outcome) {
	if ts != nil {
		ts.led.Retire(write, late, err, poolTyped)
	}
	ch.c.outcome[o].Inc()
}

// readmit re-admits one backoff-expired fragment behind any
// admission-held arrivals, before the epoch's fill pass (the supervisor
// promotes them in retry-queue order).
func (p *Pool) readmit(f *Piece) {
	ci := p.channelOf(f.Member)
	ch := p.chans[ci]
	p.unpark(ch)
	if p.Cfg.Admission == AdmitShedOldest {
		p.displaceOldest(ch, ci)
	}
	if len(ch.tq) > 0 {
		qi := p.qosIndex(f.Req.Tenant)
		ch.tq[qi].fifo = append(ch.tq[qi].fifo, f)
	} else {
		ch.pending = append(ch.pending, f)
	}
	ch.ctr.Inc("frags-repromoted")
	ch.mark()
}

// Step advances the plane one epoch: boundary bookkeeping (deadline expiry,
// retry promotion, queue fill, rebuild issue) in canonical channel order,
// then every member kernel to the next boundary in member order, then
// completion collection, health probes and breaker ticks. The records of
// the requests it retired wait for Poll, in deterministic order. The
// channel passes skip parked channels; with lookahead on, a channel left
// with nothing held, queued or in flight parks at the new boundary.
func (p *Pool) Step() {
	p.sup.Epochs++
	epochEnd := p.now.Add(p.epoch)
	p.refillTokens(1)
	p.expireAndSweep()
	p.sup.Promote(p.readmit)
	for ci, ch := range p.chans {
		if !ch.parked {
			p.fill(ci)
		}
	}
	p.issueRebuilds()
	p.advanceAll(epochEnd)
	p.collect()
	p.sup.Settle()
	for _, ch := range p.chans {
		if ch.parked {
			continue
		}
		ch.brk.tick()
		if !p.Cfg.DisableLookahead && ch.idle() {
			ch.parked, ch.parkedAt = true, epochEnd
			ch.settled = ch.brk.state == breakerClosed && !ch.brk.tripReady()
		}
	}
	p.Advance(1)
}

// advanceAll runs every member kernel to the boundary at to, the
// supervisor's epoch count, in canonical member order on the calling
// goroutine (an epoch is one tREFI of member work, too little to pay for
// handing it to other goroutines). With lookahead on, a member advances
// through the cross-layer idle warp (core.FastForwardIdle), and one left
// quiescent with nothing of the pool's outstanding on it is parked for good:
// later calls skip it until the supervisor wakes it. The pool wakes a member
// wherever it schedules on one or hands one out: dispatch, rebuildOp, Member
// and CheckHealth. Every other read of a parked member (Probe, Stats,
// ResidentPooled, failover) reads driver error events, mode and resident
// set and auditor violations, which a quiescent member's clean refresh
// cycles leave untouched. Lockstep advances every member event by event and
// never parks.
func (p *Pool) advanceAll(to sim.Time) {
	p.sup.Boundary = p.sup.Epochs
	for i, m := range p.members {
		switch {
		case p.sup.Skip(i, p.sup.Epochs):
		case p.Cfg.DisableLookahead:
			m.sys.K.RunUntil(to)
		default:
			m.sys.FastForwardIdle(to)
			// An op in flight keeps events queued, so Quiescent alone would
			// refuse such a member; the pool checks its own books as well
			// rather than lean on the member model for that.
			if m.ops == 0 && len(m.done) == 0 && len(m.rdone) == 0 && !p.rebuilding(i) && m.sys.Quiescent() {
				p.sup.Park(i, math.MaxInt)
			}
		}
	}
}

// catchUp brings a parked channel's EWMA and breaker to the current
// boundary (channelState.catchUp). Every reader of a parked channel's EWMA
// or breaker calls it first: Submit (shedAtAdmission, and unpark before
// enqueueing), readmit, Occupancy and Stats, and through breakerOf
// QuietEpochs, Probe and ProbeSteady. Fill, dispatch and fragFailed run
// only on channels with work, which are never parked.
func (p *Pool) catchUp(ch *channelState) { p.closedFolds += ch.catchUp(p.now, p.epoch) }

// catchUp replays the epochs a parked channel skipped up to boundary now
// with one quietFold.run and one breaker.ticks: the closed forms of
// collect's per-epoch fold and Step's tick, which share no state, so their
// order within an epoch is immaterial. The channel stays parked. It
// returns the epochs folded in closed form.
func (ch *channelState) catchUp(now sim.Time, epoch sim.Duration) int {
	if !ch.parked || ch.parkedAt == now {
		return 0
	}
	k := int(now.Sub(ch.parkedAt) / epoch)
	f := ch.startFold(ch.parkedAt, epoch)
	ch.brk.ticks(k)
	ch.parkedAt = now
	return f.run(ch, k)
}

// unpark catches a channel up before it takes work.
func (p *Pool) unpark(ch *channelState) {
	p.catchUp(ch)
	ch.parked = false
}

// breakerOf returns ch's breaker, current for a read of its state, cooldown
// or trip-readiness. A closed breaker that is not trip-ready stays so over
// any run of ticks without observations (a window that ends without
// tripping restarts empty, and BreakerMinSamples >= 1 keeps an empty window
// from tripping), so a channel that parked with one (settled) is read as
// it stands; any other parked channel is caught up first.
func (p *Pool) breakerOf(ch *channelState) *breaker {
	if !ch.settled {
		p.catchUp(ch)
	}
	return ch.brk
}

// QuietEpochs reports how many upcoming epochs — at most limit — are
// provably quiet: no boundary pass can change front-end state, so the whole
// span may be replayed in one batch (StepQuiet) with byte-identical results.
// Quiet requires an empty front end: every channel parked, with no held,
// queued or in-flight fragment, and no active rebuild. The horizon is then
// bounded by the supervisor's (Supervisor.Horizon: member probes, retry
// readiness) and by the pool's own boundary events:
//
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
	if p.Cfg.DisableLookahead || limit <= 1 || len(p.sup.Jobs) > 0 {
		return 0
	}
	for _, ch := range p.chans {
		if !ch.parked || !ch.idle() {
			return 0
		}
	}
	k := p.sup.Horizon(limit)
	for _, e := range p.sup.Retries {
		r := e.Item.Req
		if r.Canceled {
			return 0
		}
		if dl := r.Deadline; dl > 0 {
			if dl <= p.now {
				return 0
			}
			k = min(k, int((dl.Sub(p.now)-1)/p.epoch)+1)
		}
	}
	for _, ch := range p.chans {
		if h, ok := p.breakerOf(ch).quietHorizon(); ok && h < k {
			k = h
		}
	}
	return max(k, 0)
}

// StepQuiet advances the pool k quiet epochs (QuietEpochs' preconditions)
// in one pass: every unparked member kernel runs — and warps — straight to
// the final boundary (parked members stay put until touched), and the
// per-epoch boundary effects that still tick in an idle pool are replayed
// exactly, in O(tenants) rather than once per epoch: the epoch counter and
// the per-tenant token-bucket refills (the same one-addition-per-epoch
// sequence Step performs, cut short once a bucket stops moving, so bucket
// levels stay bit-identical to the naive path). Every channel is parked,
// so its EWMA fold and breaker ticks wait for catchUp, which replays the
// parked span in O(1) whenever a reader next needs them. Every other
// boundary pass (expiry sweep, retry promotion, fill, rebuild issue,
// collect's drain, completion delivery) is a no-op on a quiet pool, and so
// is every member probe inside the span; the final epoch's runs last, as
// in Step (Supervisor.Jump). k must not exceed what QuietEpochs just
// reported at this boundary: StepQuiet trusts the caller and does not
// re-check the span.
func (p *Pool) StepQuiet(k int) {
	end := p.now.Add(sim.Duration(k) * p.epoch)
	p.sup.Jump(k)
	p.advanceAll(end)
	p.refillTokens(k)
	p.sup.Settle()
	p.Advance(k)
}

// ClosedFormFolds returns how many channel-epochs of EWMA folding parked
// channels' catch-ups have replayed in closed form. It is a lookahead
// diagnostic, kept out of Stats so lockstep and lookahead runs stay byte-comparable: the
// lockstep-vs-lookahead tests read it to prove they cover that branch.
func (p *Pool) ClosedFormFolds() int { return p.closedFolds }

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
		Meter:                    metrics.NewMeter(p.origin),
		Ctr:                      metrics.NewCounters(),
		Ledger:                   p.led,
		PerTenant:                p.tenantStats(),
		PostQuarantineDispatches: p.postQuarantine,
		SparesUsed:               p.sparesUsed,
		Epochs:                   p.sup.Epochs,
		HeldPeak:                 p.heldPeak,
	}
	for _, ch := range p.chans {
		p.catchUp(ch)
		s.Meter.Merge(ch.meter)
		s.Ctr.Merge(ch.ctr)
		s.PerChannel = append(s.PerChannel, ChannelStats{
			Lat: ch.lat, Meter: ch.meter, Ctr: ch.ctr, Breaker: ch.brk.state.String(),
			HeldHW: ch.heldHW, QueueHW: ch.queueHW, ServiceEWMA: ch.ewma,
		})
	}
	s.Ctr.Merge(p.ctrPool)
	for i, m := range p.members {
		h, k := p.health[i], &p.sup.Kids[i]
		switch k.State {
		case HealthCondemned:
			s.Quarantined++
		case HealthEvacuated:
			s.Evacuated++
		}
		hs := m.sys.Driver.Health()
		s.PerMember = append(s.PerMember, MemberStats{
			State:        MemberState(k.State),
			Spare:        h.spare,
			InService:    h.inService,
			Logical:      h.logical,
			Mode:         hs.Mode,
			DriverErrors: hs.ErrorEvents,
			FragErrors:   h.fragErrs,
			Reason:       k.Reason,
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
	p.sup.Wake(i)
	return p.members[i].sys
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
	if err := p.sup.CheckDrained(); err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	for i, ch := range p.chans {
		if ch.held() != 0 || len(ch.queue) != 0 || ch.inflight != 0 {
			return fmt.Errorf("pool: channel %d left held=%d queued=%d inflight=%d",
				i, ch.held(), len(ch.queue), ch.inflight)
		}
	}
	for i, m := range p.members {
		p.sup.Wake(i)
		if p.sup.Kids[i].State >= HealthCondemned {
			continue
		}
		if err := m.sys.CheckHealth(); err != nil {
			return fmt.Errorf("pool: member %d: %w", i, err)
		}
	}
	return nil
}
