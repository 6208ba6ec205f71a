// Package numa composes N pooled sockets into one multi-socket fabric
// behind a single Submit/Poll request plane — the pool-of-pools scale-out
// of ROADMAP item 3, built the way the pool itself composes members, one
// level up:
//
//	member : pool  ::  pool (socket) : fabric
//
// The fabric owns a flat address space striped socket-major: socket s
// serves [s*span, (s+1)*span), span being the smallest pool capacity
// rounded down to ChunkBytes. A chunk directory (logical socket × chunk →
// serving socket) indirects every access, so evacuating a socket re-homes
// its chunks to survivors without changing a single request address.
//
// Remote requests pay a METICULOUS-style interconnect: per directed link, a
// configurable one-way latency plus a bandwidth term modeled as
// deterministic queueing on the link's busy-until horizon — request bytes
// ride out, completion bytes ride back, both folded into the completion
// time the submitter observes. Everything advances in the same conservative
// epoch lockstep as the pool: all fabric state mutates single-threaded at
// epoch boundaries in canonical socket order, so output is byte-identical
// at any worker count. The pool's lookahead lifts one level too: spans in
// which no fabric boundary can act advance every socket in one quiet batch
// (QuietEpochs/StepQuiet), byte-identical to the lockstep oracle that
// DisableLookahead keeps.
//
// A quiescent socket is also parked, as the pool parks idle members: while
// other sockets work, Step skips it, and it catches up with one pool
// StepQuiet over everything it skipped when something next touches it.
// Touching means handing its pool work or handing its pool out: dispatch,
// migration (startMigration wakes every socket), Socket, Stats and
// CheckHealth, plus the Step at which the horizon its pool's QuietEpochs
// proved runs out. Those reads and writes see the pool's clock and
// members, so they need it caught up. The lattice's probe reads need no
// catch-up: the pool's probe snapshot was pinned at parking and its pool
// vouched it holds for the whole horizon (pool.ProbeSteady), so the probes
// read the pinned copy. A socket whose pool cannot vouch parks only until
// the next socket probe. Lockstep never parks.
//
// Socket health is the member lattice lifted one level (Up → Suspect →
// Evacuating → Evacuated), driven by epoch-boundary probes that diff each
// pool's health snapshot (pool.Probe). A failing socket is drained by a
// rate-limited background migration of its resident set to survivors,
// while foreground traffic re-routes through the directory — typed
// ErrSocketEvacuated / ErrFabricDegraded, never silent loss.
package numa

import (
	"errors"
	"fmt"

	"nvdimmc/internal/fault"
	"nvdimmc/internal/metrics"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// Typed fabric errors, the socket-level analogues of the pool's
// ErrMemberQuarantined / ErrPoolDegraded.
var (
	// ErrSocketEvacuated: the request's serving socket is evacuating or
	// evacuated and no healthy survivor serves its chunks (or a retry found
	// its new home already gone).
	ErrSocketEvacuated = errors.New("numa: socket evacuated")
	// ErrFabricDegraded: cross-socket retries exhausted without landing the
	// request on a healthy socket.
	ErrFabricDegraded = errors.New("numa: fabric degraded, retries exhausted")
)

// LinkFault degrades the interconnect at a scheduled epoch boundary —
// the seeded campaign's "interconnect-degrade" lever.
type LinkFault struct {
	// Epoch is the fabric epoch count at whose boundary the fault applies.
	Epoch int
	// Socket selects the victim: every link touching it degrades. Negative
	// degrades the whole fabric.
	Socket int
	// LatFactor multiplies the affected links' one-way latency (values < 1
	// are ignored).
	LatFactor int
	// BWDivide divides the affected links' bandwidth (values < 1 ignored).
	BWDivide int
}

// Config parameterizes a fabric.
type Config struct {
	// Sockets is the socket count (default 2).
	Sockets int
	// Pool is the per-socket pool template. Its Seed, Workers and
	// DisableLookahead are overridden per socket from the fabric-level
	// fields below; everything else applies verbatim to every socket.
	Pool pool.Config

	// XLat is the cross-socket one-way link latency (default 400 ns, the
	// remote-DRAM asymmetry scale the Empirical Guide measures).
	XLat sim.Duration
	// XBWBytesPerSec is the per-directed-link bandwidth (default 8 GB/s).
	XBWBytesPerSec int64
	// ChunkBytes is the directory granularity: evacuation re-homes whole
	// chunks. Must be a multiple of the pool interleave (default 256 KiB).
	ChunkBytes int64

	// ProbeEvery gates socket probes to every Nth fabric epoch (default 8).
	ProbeEvery int
	// SuspectClearProbes is the clean-probe streak that returns a Suspect
	// socket to Up (default 4).
	SuspectClearProbes int
	// EvacuateAfterProbes is the consecutive-suspect-probe streak that
	// escalates Suspect to Evacuating (default 3). Degraded positions and
	// pool-invariant breaches escalate immediately.
	EvacuateAfterProbes int

	// MaxEpochs guards Run/Drain against wedges (default 1<<21).
	MaxEpochs int
	// Workers caps how many members each socket's pool builds and prefills
	// concurrently (pool.Config.Workers); epochs advance on the stepping
	// goroutine.
	Workers int
	// Seed derives every per-socket pool seed (zero gets a fixed default).
	Seed uint64
	// DisableLookahead forces naive per-epoch member advance in every pool.
	DisableLookahead bool
	// Notify, when set, receives terminal completions instead of Poll.
	Notify func(pool.Completion)
	// LinkFaults schedules interconnect degradations.
	LinkFaults []LinkFault
	// ArmFaults arms per-member fault registries, keyed by socket and
	// member — the fabric campaign's socket-kill / slow-socket lever. It
	// runs after any ArmFaults on the pool template.
	ArmFaults func(socket, member int, reg *fault.Registry)
}

// fabReq is one fabric-level request; it fans out into per-socket sockOps
// (one per contiguous same-owner address run) that complete together.
type fabReq struct {
	id       uint64
	tenant   int
	src      int
	arrival  sim.Duration
	deadline sim.Duration // absolute instant (arrival + budget); 0 = none
	write    bool
	bytes    int
	remote   bool

	remaining int
	lastDone  sim.Duration
	err       error
	// notify: emit a Completion record for Poll/Notify (Submit, not the
	// driver's Offer), the pool's rule one level up.
	notify bool
	// insub is true while Submit is still dispatching pieces: a request
	// retiring with it set resolved synchronously, so the caller holds the
	// typed error and no Completion record is produced (pool.Submit parity).
	insub bool
	// first is the request's first piece, embedded so a request that stays
	// on one socket allocates no sockOp of its own.
	first sockOp
}

// sockOp is one per-socket piece of a fabric request.
type sockOp struct {
	req      *fabReq
	off      int64 // fabric address of this piece
	n        int
	attempts int
}

// seg is one contiguous same-owner address run of a request being split.
type seg struct {
	off int64
	n   int
}

type fabRetry struct {
	op    *sockOp
	ready int // fabric epoch at which it re-dispatches
}

// Fabric is the multi-socket request plane.
type Fabric struct {
	Cfg Config

	socks []*socket
	links *interconnect

	span   int64 // bytes served per socket
	chunks int   // directory chunks per socket
	owner  []int // (logical socket * chunks + chunk) -> serving socket
	reown  int   // round-robin cursor for re-homing spread

	epoch  sim.Duration
	now    sim.Duration // current boundary, relative to fabric origin
	epochs int
	// boundary is the pool epoch count the unparked sockets stand at: the
	// fabric's epoch count between Steps, one less while a Step is issuing
	// work before its pools advance. wake catches a parked socket up to it.
	boundary int
	// quietSpan counts the epochs advanced inside quiet batches,
	// probesJumped the socket-probe epochs strictly inside them, and
	// parkedSteps the socket advances skipped because the socket was
	// parked: lookahead diagnostics, deliberately outside Stats so lockstep
	// and lookahead runs stay byte-comparable.
	quietSpan    int
	probesJumped int
	parkedSteps  int

	retries []fabRetry
	jobs    []*migJob

	nextID uint64
	out    pool.Outbox
	// segScratch is submit's reusable split buffer, and drain collect's
	// reusable buffer of socket completions.
	segScratch []seg
	drain      []pool.Completion

	ctr        *metrics.Counters
	lat        *metrics.Histogram // local foreground completions
	latRemote  *metrics.Histogram // foreground completions that crossed a link
	latMigrate *metrics.Histogram // foreground completions while migration ran

	// led books every terminal outcome (pool.Ledger).
	led pool.Ledger
	// postEvacSubmissions counts foreground pool submissions that reached a
	// socket at or past Evacuating; probe-before-submit ordering makes this
	// structurally zero and CheckHealth asserts it.
	postEvacSubmissions uint64
}

// socket is one pooled socket plus its fabric-side tracking state.
type socket struct {
	pool   *pool.Pool
	health *socketHealth
	pend   map[uint64]*sockOp // pool request ID -> foreground op
	mig    map[uint64]*migOp  // pool request ID -> migration op

	// parked: the socket sits quiescent at its pool's epoch count, skipped
	// by Step and StepQuiet until it is caught up (see park and wake).
	// until is the fabric epoch at which its horizon runs out, and pinned
	// its pool.Probe taken at parking.
	parked bool
	until  int
	pinned pool.Probe
}

func (c *Config) fillDefaults() error {
	if c.Sockets == 0 {
		c.Sockets = 2
	}
	if c.Sockets < 1 {
		return fmt.Errorf("numa: %d sockets", c.Sockets)
	}
	if c.XLat == 0 {
		c.XLat = 400 * sim.Nanosecond
	}
	if c.XLat < 0 {
		return fmt.Errorf("numa: negative link latency %v", c.XLat)
	}
	if c.XBWBytesPerSec == 0 {
		c.XBWBytesPerSec = 8 << 30
	}
	if c.XBWBytesPerSec < 0 {
		return fmt.Errorf("numa: negative link bandwidth %d", c.XBWBytesPerSec)
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 256 << 10
	}
	if c.ChunkBytes < 0 {
		return fmt.Errorf("numa: negative chunk size %d", c.ChunkBytes)
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 8
	}
	if c.SuspectClearProbes <= 0 {
		c.SuspectClearProbes = 4
	}
	if c.EvacuateAfterProbes <= 0 {
		c.EvacuateAfterProbes = 3
	}
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = 1 << 21
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// New assembles Sockets pools from the template, derives the socket-major
// address map, and aligns everything on a shared epoch clock. Each pool
// aligns its own members internally; the fabric then works purely in
// durations relative to each pool's origin, so per-socket boot-time skew
// (different seeds boot in different simulated times) never leaks into
// fabric arithmetic.
func New(cfg Config) (*Fabric, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	f := &Fabric{
		Cfg:        cfg,
		ctr:        metrics.NewCounters(),
		lat:        metrics.NewHistogram(),
		latRemote:  metrics.NewHistogram(),
		latMigrate: metrics.NewHistogram(),
	}
	for s := 0; s < cfg.Sockets; s++ {
		pc := cfg.Pool
		pc.Seed = sim.SplitSeed(cfg.Seed, fmt.Sprintf("numa/socket-%02d", s))
		pc.Workers = cfg.Workers
		pc.DisableLookahead = cfg.DisableLookahead
		pc.Notify = nil // the fabric polls
		if cfg.ArmFaults != nil {
			sock := s
			prev := cfg.Pool.ArmFaults
			pc.ArmFaults = func(m int, reg *fault.Registry) {
				if prev != nil {
					prev(m, reg)
				}
				cfg.ArmFaults(sock, m, reg)
			}
			pc.FaultSeed = sim.SplitSeed(cfg.Seed, fmt.Sprintf("numa/fault-%02d", s))
		}
		p, err := pool.New(pc)
		if err != nil {
			return nil, fmt.Errorf("numa: socket %d: %w", s, err)
		}
		f.socks = append(f.socks, &socket{
			pool:   p,
			health: &socketHealth{},
			pend:   map[uint64]*sockOp{},
			mig:    map[uint64]*migOp{},
		})
	}
	f.epoch = f.socks[0].pool.Epoch()
	span := f.socks[0].pool.Capacity()
	for _, s := range f.socks[1:] {
		if c := s.pool.Capacity(); c < span {
			span = c
		}
	}
	span -= span % cfg.ChunkBytes
	if span < cfg.ChunkBytes {
		return nil, fmt.Errorf("numa: socket capacity %d below one %d-byte chunk", span, cfg.ChunkBytes)
	}
	f.span = span
	f.chunks = int(span / cfg.ChunkBytes)
	f.owner = make([]int, cfg.Sockets*f.chunks)
	for i := range f.owner {
		f.owner[i] = i / f.chunks
	}
	f.links = newInterconnect(cfg.Sockets, cfg.XLat, cfg.XBWBytesPerSec)
	return f, nil
}

// Span returns the bytes served per socket; Capacity the fabric total.
func (f *Fabric) Span() int64     { return f.span }
func (f *Fabric) Capacity() int64 { return f.span * int64(f.Cfg.Sockets) }

// Now returns the current epoch boundary as a duration since fabric start.
func (f *Fabric) Now() sim.Duration { return f.now }

// Socket exposes socket s's pool (tests, health checks, CLI tables),
// caught up to the fabric's boundary first. A later Step may park the
// socket again, so call Socket again after one rather than keep the pool.
func (f *Fabric) Socket(s int) *pool.Pool {
	f.wake(f.socks[s])
	return f.socks[s].pool
}

// ownerOf returns the socket currently serving the chunk holding off.
func (f *Fabric) ownerOf(off int64) int {
	return f.owner[int(off/f.Cfg.ChunkBytes)]
}

// localOff maps a fabric address to the serving pool's local offset: the
// within-span offset is preserved across re-homing, so migration and
// foreground traffic agree on addresses without a translation table.
func (f *Fabric) localOff(off int64) int64 { return off % f.span }

// Submit offers one request to the fabric at the current epoch boundary.
// Requests wholly refused at admission (every piece shed or throttled
// synchronously by its pool) return the typed error immediately, like
// pool.Submit; partially admitted requests resolve through Poll/Notify
// with the typed chain attached. Addresses outside [0, Capacity) panic:
// callers own admission of addresses, as with the pool decoder.
func (f *Fabric) Submit(r openloop.Request) (uint64, error) { return f.submit(r, true) }

// Offer submits a driver-owned request (pool.Plane): its terminal record
// reaches only Cfg.Notify, never Poll.
func (f *Fabric) Offer(r openloop.Request) { f.submit(r, false) }

func (f *Fabric) submit(r openloop.Request, notify bool) (uint64, error) {
	if r.Off < 0 || r.Len <= 0 || r.Off+int64(r.Len) > f.Capacity() {
		panic(fmt.Sprintf("numa: request [%d,+%d) outside fabric capacity %d", r.Off, r.Len, f.Capacity()))
	}
	src := r.Socket
	if src < 0 || src >= f.Cfg.Sockets {
		src = 0
	}
	f.nextID++
	req := &fabReq{
		id:      f.nextID,
		tenant:  r.Tenant,
		src:     src,
		arrival: r.Arrival,
		write:   r.Write,
		bytes:   r.Len,
		notify:  notify,
	}
	if r.Deadline > 0 {
		req.deadline = r.Arrival + r.Deadline
	}
	f.led.Submit(r.Write)
	// Split at chunk boundaries, merging consecutive chunks with the same
	// serving socket so a request crossing an un-re-homed span stays one op.
	segs := f.segScratch[:0]
	off, n := r.Off, r.Len
	for n > 0 {
		run := int(f.Cfg.ChunkBytes - off%f.Cfg.ChunkBytes)
		if run > n {
			run = n
		}
		if len(segs) > 0 {
			last := &segs[len(segs)-1]
			if last.off+int64(last.n) == off && f.ownerOf(last.off) == f.ownerOf(off) &&
				f.localOff(last.off)+int64(last.n) == f.localOff(off) {
				last.n += run
				off += int64(run)
				n -= run
				continue
			}
		}
		segs = append(segs, seg{off, run})
		off += int64(run)
		n -= run
	}
	f.segScratch = segs
	req.remaining = len(segs)
	req.insub = true
	for i, sg := range segs {
		op := &req.first
		if i > 0 {
			op = &sockOp{}
		}
		*op = sockOp{req: req, off: sg.off, n: sg.n}
		f.dispatch(op)
	}
	req.insub = false
	if req.remaining == 0 {
		// Every piece resolved synchronously (admission refusal or typed
		// fast-fail): hand the caller the typed chain, pool-style — the
		// outcome counters are already settled, no Completion record.
		return req.id, req.err
	}
	return req.id, nil
}

// dispatch routes one sockOp through the directory and submits it to its
// serving pool, paying the request-path interconnect transfer. It is the
// single choke point for the post-evacuation invariant: a piece whose
// serving socket is at or past Evacuating is refused typed here, before
// any pool sees it.
func (f *Fabric) dispatch(op *sockOp) {
	dst := f.ownerOf(op.off)
	h := f.socks[dst].health
	if h.state >= SocketEvacuating {
		f.ctr.Inc("refused-evacuated")
		f.opTerminal(op, fmt.Errorf("numa: socket %d %s (%s): %w", dst, h.state, h.reason, ErrSocketEvacuated), f.now)
		return
	}
	at := op.req.arrival
	if at < f.now {
		at = f.now
	}
	xb := 64 // request descriptor
	if op.req.write {
		xb += op.n // write payload rides the request path
	}
	arrive := f.links.xfer(op.req.src, dst, xb, at)
	var budget sim.Duration
	if dl := op.req.deadline; dl > 0 {
		budget = dl - arrive
		if budget <= 0 {
			// The wire alone eats the whole budget: fail fast, typed, without
			// burning a pool slot.
			f.ctr.Inc("expired-on-wire")
			f.opTerminal(op, fmt.Errorf("numa: link transfer lands %v past deadline: %w",
				arrive-dl, pool.ErrDeadlineExceeded), arrive)
			return
		}
	}
	if op.req.src != dst {
		if !op.req.remote {
			op.req.remote = true
			f.ctr.Inc("remote-requests")
		}
	}
	if h.state >= SocketEvacuating {
		// Unreachable (checked above) but kept as the counted invariant:
		// any submission past this point to an evacuating socket is a bug
		// CheckHealth must surface.
		f.postEvacSubmissions++
	}
	f.wake(f.socks[dst])
	pid, err := f.socks[dst].pool.Submit(openloop.Request{
		Arrival:  arrive,
		Deadline: budget,
		Tenant:   op.req.tenant,
		Socket:   dst,
		Off:      f.localOff(op.off),
		Len:      op.n,
		Write:    op.req.write,
	})
	if err != nil {
		// Synchronous typed refusal (admission shed / tenant throttle).
		f.opTerminal(op, err, arrive)
		return
	}
	f.socks[dst].pend[pid] = op
}

// opTerminal retires one piece with a typed error.
func (f *Fabric) opTerminal(op *sockOp, err error, at sim.Duration) {
	if op.req.err == nil {
		op.req.err = fmt.Errorf("numa: piece [%d,+%d): %w", op.off, op.n, err)
	}
	f.requestPieceDone(op.req, at)
}

// opDone retires one piece successfully at instant at.
func (f *Fabric) opDone(op *sockOp, at sim.Duration) {
	f.requestPieceDone(op.req, at)
}

// maxRetries bounds cross-socket re-dispatch of typed-failed requests.
const maxRetries = 4

// opFailed handles an asynchronous typed failure: re-dispatch through the
// directory after capped exponential backoff — the failure usually means
// the serving socket just degraded, and the probe/evacuation machinery is
// re-homing its chunks — failing fast when the remaining deadline budget
// cannot cover the next attempt.
func (f *Fabric) opFailed(op *sockOp, err error, at sim.Duration) {
	op.attempts++
	if op.attempts > maxRetries {
		f.ctr.Inc("fab-retry-exhausted")
		f.opTerminal(op, fmt.Errorf("%w after %d attempts: %v", ErrFabricDegraded, op.attempts, err), at)
		return
	}
	delay := pool.RetryBackoff(op.attempts)
	if dl := op.req.deadline; dl > 0 {
		eta := f.now + sim.Duration(delay)*f.epoch + f.Cfg.XLat
		if eta > dl {
			f.ctr.Inc("fab-retry-infeasible")
			f.opTerminal(op, fmt.Errorf("numa: retry %d backoff lands %v past deadline (%v): %w",
				op.attempts, eta-dl, err, pool.ErrDeadlineExceeded), at)
			return
		}
	}
	f.ctr.Inc("fab-retry-queued")
	f.retries = append(f.retries, fabRetry{op: op, ready: f.epochs + delay})
}

// promoteRetries re-dispatches every piece whose backoff has elapsed, in
// queue (submission) order.
func (f *Fabric) promoteRetries() {
	if len(f.retries) == 0 {
		return
	}
	keep := f.retries[:0]
	for _, e := range f.retries {
		if e.ready > f.epochs {
			keep = append(keep, e)
			continue
		}
		f.ctr.Inc("fab-retry-promoted")
		f.dispatch(e.op)
	}
	f.retries = keep
}

// fabricTyped lists the sentinels that make a fabric failure typed: the
// pool's plus the socket-level ones.
var fabricTyped = []error{pool.ErrMemberQuarantined, pool.ErrPoolDegraded, ErrSocketEvacuated, ErrFabricDegraded}

// requestPieceDone folds one terminal piece into its request; the last
// piece retires the whole request through the ledger, in pool outcome
// terms.
func (f *Fabric) requestPieceDone(r *fabReq, at sim.Duration) {
	if at > r.lastDone {
		r.lastDone = at
	}
	r.remaining--
	if r.remaining > 0 {
		return
	}
	late := r.deadline > 0 && r.lastDone > r.deadline
	c := pool.Completion{
		ID:      r.id,
		Tenant:  r.tenant,
		Write:   r.write,
		Outcome: f.led.Retire(r.write, late, r.err, fabricTyped),
		At:      sim.Time(r.lastDone),
		Latency: r.lastDone - r.arrival,
		Err:     r.err,
	}
	if c.Outcome == pool.OutcomeCompleted {
		if late {
			c.Late = true
			c.Lateness = r.lastDone - r.deadline
		}
		if r.remote {
			f.latRemote.Record(c.Latency)
		} else {
			f.lat.Record(c.Latency)
		}
		if len(f.jobs) > 0 {
			f.latMigrate.Record(c.Latency)
		}
	}
	if !r.insub {
		f.out.Add(c, r.notify, f.Cfg.Notify)
	}
}

// Step advances the fabric one epoch: boundary bookkeeping (link faults,
// retry promotion, migration issue) in canonical order, every socket pool
// one epoch in canonical socket order, then completion collection, socket
// probes and migration sweep — all single-threaded at the boundary. A
// parked socket is skipped until the epoch its horizon runs out, where it
// catches up through that epoch instead of stepping.
func (f *Fabric) Step() {
	f.epochs++
	f.applyLinkFaults()
	f.promoteRetries()
	f.issueMigrations()
	for _, s := range f.socks {
		switch {
		case !s.parked:
			s.pool.Step()
		case f.epochs < s.until:
			f.parkedSteps++
		default:
			f.catchUp(s, f.epochs)
		}
	}
	f.boundary = f.epochs
	f.collect()
	f.sweepMigrations()
	f.probeSockets()
	f.park()
	f.now += f.epoch
	f.out.Flush(f.Cfg.Notify)
}

// park parks every socket that has just advanced and can sit out the
// coming epochs: lookahead is on, no migration job runs, the fabric has no
// piece pending on it, its pool is quiesced, and its pool's QuietEpochs
// proves a horizon of at least two quiet epochs. The socket's pool may then
// cover any part of that horizon with one StepQuiet, byte-identical to the
// Steps it skipped; the horizon also bounds the fabric's batches
// (QuietEpochs), so a parked socket never lags further than its pool
// vouched for. Its probe is pinned for the fabric's lattice when the pool
// vouches that the snapshot holds over the horizon (pool.ProbeSteady).
// When it cannot, as with armed fault registries, the horizon also ends at
// the next socket-probe epoch, where the socket catches up before the
// probe reads it.
func (f *Fabric) park() {
	if f.Cfg.DisableLookahead || len(f.jobs) > 0 {
		return
	}
	for _, s := range f.socks {
		if s.parked || len(s.pend)+len(s.mig) != 0 || !s.pool.Quiesced() {
			continue
		}
		h := s.pool.QuietEpochs(f.Cfg.MaxEpochs - f.epochs)
		if !s.pool.ProbeSteady() {
			h = min(h, f.Cfg.ProbeEvery-f.epochs%f.Cfg.ProbeEvery)
		}
		if h >= 2 {
			s.parked, s.until, s.pinned = true, f.epochs+h, s.pool.Probe()
		}
	}
}

// wake catches a parked socket up to the fabric's boundary and unparks it.
// Every place the fabric submits to a socket or hands its pool out calls
// it first: dispatch, startMigration (which wakes every socket before
// migSubmit's copies), Socket, Stats and CheckHealth. Step and StepQuiet
// catch a socket up themselves at the epoch its horizon runs out. The
// fabric's other reads of a parked socket need no catch-up: probeSockets
// and probesIdle read the pinned probe, which ProbeSteady vouched for over
// the whole horizon (no socket probe falls inside any other horizon, see
// park), and Quiesced and collect find nothing a quiet span could change.
func (f *Fabric) wake(s *socket) { f.catchUp(s, f.boundary) }

// catchUp unparks s and advances its pool to fabric epoch to with one Step
// or StepQuiet: exact, because to lies inside the horizon the pool's
// QuietEpochs reported when the socket parked, and StepQuiet over any part
// of such a span equals that many Steps.
func (f *Fabric) catchUp(s *socket, to int) {
	if !s.parked {
		return
	}
	s.parked = false
	switch gap := to - s.pool.Epochs(); {
	case gap == 1:
		s.pool.Step()
	case gap > 1:
		s.pool.StepQuiet(gap)
	}
}

// collect drains every socket's completions in socket order and folds them
// into fabric requests, paying the return-path transfer for completed
// remote pieces (a read's payload rides home; acks are descriptor-sized).
func (f *Fabric) collect() {
	for si, s := range f.socks {
		if s.parked {
			continue // nothing pending on it
		}
		f.drain = s.pool.Poll(f.drain[:0], 0)
		for _, c := range f.drain {
			rel := c.At.Sub(s.pool.Origin())
			if op, ok := s.pend[c.ID]; ok {
				delete(s.pend, c.ID)
				switch c.Outcome {
				case pool.OutcomeCompleted:
					rb := 64
					if !op.req.write {
						rb += op.n
					}
					f.opDone(op, f.links.xfer(si, op.req.src, rb, rel))
				case pool.OutcomeFailed:
					f.opFailed(op, c.Err, rel)
				default: // shed / expired / throttled, asynchronously
					f.opTerminal(op, c.Err, rel)
				}
				continue
			}
			if mo, ok := s.mig[c.ID]; ok {
				delete(s.mig, c.ID)
				f.migDone(mo, c)
				continue
			}
			// A completion neither map owns would be a bookkeeping bug;
			// count it so CheckHealth can fail loudly.
			f.ctr.Inc("orphan-completions")
		}
	}
}

// Poll removes up to max buffered completions (all when max <= 0) and
// appends them to dst.
func (f *Fabric) Poll(dst []pool.Completion, max int) []pool.Completion {
	return f.out.Poll(dst, max)
}

// Quiesced reports whether every submitted request is terminal and no
// background work (retries, migrations, in-flight pieces) remains.
func (f *Fabric) Quiesced() bool {
	if f.led.Terminal() != f.led.Submitted || len(f.retries) != 0 || len(f.jobs) != 0 {
		return false
	}
	for _, s := range f.socks {
		if len(s.pend) != 0 || len(s.mig) != 0 || !s.pool.Quiesced() {
			return false
		}
	}
	return true
}

// QuietEpochs reports how many upcoming fabric epochs — at most limit — are
// provably quiet, so StepQuiet may advance them in one batch with results
// byte-identical to that many Steps. It returns 0 (take a plain Step) unless
// at least two are. Quiet requires an idle fabric: no migration job, no
// pending foreground or migration piece on any socket, and lookahead on.
// The horizon is then bounded by the next fabric boundary event:
//
//   - the next socket-probe epoch, but only when a probe could act. The
//     lattice's suspect and clean streaks count probes, so a batch may end
//     on such a probe epoch (StepQuiet runs it there) but never jump one.
//     When every socket probe in the span provably takes the no-op path
//     (probesIdle), the bound is dropped and the batch jumps probe epochs;
//   - each retry's ready epoch, minus one, so the promoting boundary is a
//     real Step;
//   - each future LinkFault's epoch, minus one, so the fault fires on a
//     real Step;
//   - each socket pool's own QuietEpochs, which carries the pool's probe,
//     retry, deadline and breaker bounds. A parked socket's pool answered
//     that when it parked, so its remaining horizon stands in for the call.
//
// Link busy-until horizons need no bound: a quiet batch moves no byte over
// the interconnect.
func (f *Fabric) QuietEpochs(limit int) int {
	if f.Cfg.DisableLookahead || limit <= 1 || len(f.jobs) > 0 {
		return 0
	}
	for _, s := range f.socks {
		if len(s.pend)+len(s.mig) != 0 {
			return 0
		}
	}
	k := limit
	if d := (f.epochs/f.Cfg.ProbeEvery+1)*f.Cfg.ProbeEvery - f.epochs; d < k && !f.probesIdle() {
		k = d
	}
	for _, e := range f.retries {
		if d := e.ready - f.epochs - 1; d < k {
			k = d
		}
	}
	for _, lf := range f.Cfg.LinkFaults {
		if d := lf.Epoch - f.epochs - 1; lf.Epoch > f.epochs && d < k {
			k = d
		}
	}
	for _, s := range f.socks {
		if s.parked {
			k = min(k, s.until-f.epochs)
		} else {
			k = s.pool.QuietEpochs(k)
		}
	}
	if k < 2 {
		return 0
	}
	return k
}

// StepQuiet advances the fabric k quiet epochs (QuietEpochs' preconditions)
// in one batch: every unparked socket pool takes one StepQuiet(k), a parked
// socket stays put or, when its horizon runs out at the batch's end, catches
// up to it (QuietEpochs kept k inside every horizon), and of the
// fabric's boundary passes only the socket probe can act on an idle fabric.
// Link faults, retry promotion, migration issue and sweep, and collection
// are no-ops inside the span by construction, and so is every socket probe
// the span jumps (QuietEpochs drops the probe bound only when probesIdle
// proves it). The final epoch may be a probe epoch: probeSockets runs
// once, after the pools have advanced, with f.now at the final epoch's
// start, exactly as Step would run it.
func (f *Fabric) StepQuiet(k int) {
	end := f.epochs + k
	for _, s := range f.socks {
		switch {
		case !s.parked:
			s.pool.StepQuiet(k)
		case end < s.until:
			f.parkedSteps++
		default:
			f.catchUp(s, end)
		}
	}
	f.probesJumped += (f.epochs+k-1)/f.Cfg.ProbeEvery - f.epochs/f.Cfg.ProbeEvery
	f.epochs = end
	f.boundary = end
	f.quietSpan += k
	f.now += sim.Duration(k-1) * f.epoch
	f.probeSockets()
	f.park()
	f.now += f.epoch
}

// Drain steps the fabric until it quiesces (the shared driver,
// pool.Drain).
func (f *Fabric) Drain() error { return pool.Drain(f) }

// Run feeds the stream next yields through the fabric and drains it (the
// shared driver, pool.Run): quiet spans batch through QuietEpochs/StepQuiet,
// and with DisableLookahead every epoch is a full Step, the lockstep oracle.
func (f *Fabric) Run(next func() (openloop.Request, bool)) error { return pool.Run(f, next) }

// RunOpenLoop runs count arrivals from gen through the fabric.
func (f *Fabric) RunOpenLoop(gen *openloop.Generator, count int) error {
	return pool.RunOpenLoop(f, gen, count)
}

// Elapsed returns the current boundary (pool.Plane); it equals Now.
func (f *Fabric) Elapsed() sim.Duration { return f.now }

// Epoch returns the epoch length.
func (f *Fabric) Epoch() sim.Duration { return f.epoch }

// Epochs returns the fabric epochs taken so far.
func (f *Fabric) Epochs() int { return f.epochs }

// MaxEpochs returns the wedge guard.
func (f *Fabric) MaxEpochs() int { return f.Cfg.MaxEpochs }

// Ledger returns the fabric's outcome ledger.
func (f *Fabric) Ledger() pool.Ledger { return f.led }
