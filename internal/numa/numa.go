// Package numa composes N pooled sockets into one multi-socket fabric
// behind a single Submit/Poll request plane — the pool-of-pools scale-out,
// built the way the pool itself composes members, one level up:
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
// The fabric supervises its sockets with the supervisor a pool runs over
// its members (pool.Supervisor): one health lattice, probe schedule,
// parking, quiet horizon and retry queue. A quiescent socket parks while
// other sockets work and catches up with one pool StepQuiet over everything
// it skipped when the fabric next hands its pool work or hands it out, or
// when the horizon its pool's QuietEpochs proved runs out; the probes read
// its snapshot pinned at parking. Socket health walks Up → Suspect →
// Evacuating → Evacuated on probes that diff each pool's health snapshot
// (pool.Probe). A failing socket is drained by a rate-limited background
// migration of its resident set to survivors, while foreground traffic
// re-routes through the directory — typed ErrSocketEvacuated /
// ErrFabricDegraded, never silent loss.
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
	// LinkFaults schedules interconnect degradations — the seeded
	// campaign's "interconnect-degrade" lever, a fault.Plan's link entries.
	LinkFaults []fault.LinkFault
	// ArmFaults arms per-member fault registries, keyed by socket and
	// member — the fabric campaign's socket-kill / slow-socket lever. It
	// runs after any ArmFaults on the pool template.
	ArmFaults func(socket, member int, reg *fault.Registry)
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

	epoch sim.Duration
	now   sim.Duration // current boundary, relative to fabric origin
	// sup supervises the sockets: their health lattice and probes, parking,
	// the epoch count and the cross-socket retry queue (pool.Supervisor).
	sup pool.Supervisor[pool.Probe]

	// reqs recycles request records and buffers terminal records for Poll
	// (pool.Requests): a request retires there when its last piece does
	// (retire).
	reqs   pool.Requests
	nextID uint64
	// segScratch is submit's reusable split buffer, and drain collect's
	// reusable buffer of socket completions.
	segScratch []pool.Extent
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
	pool *pool.Pool
	pend map[uint64]*pool.Piece // pool request ID -> foreground piece
	mig  map[uint64]migOp       // pool request ID -> migration op
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
			pool: p,
			pend: map[uint64]*pool.Piece{},
			mig:  map[uint64]migOp{},
		})
	}
	f.epoch = f.socks[0].pool.Epoch()
	f.sup = pool.NewSupervisor[pool.Probe](socketLevel{f}, cfg.Sockets, cfg.ProbeEvery, cfg.EvacuateAfterProbes,
		pool.RetryPolicy{Max: maxRetries, Epoch: f.epoch, Degraded: ErrFabricDegraded,
			// A fabric request is never canceled: fab-retry-canceled stays 0.
			Counters: [...]string{"fab-retry-queued", "fab-retry-canceled", "fab-retry-exhausted", "fab-retry-infeasible"}},
		f.ctr, "socket", "socket-evacuating")
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
	f.sup.Wake(s)
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
// pool.Submit; partially admitted requests resolve through Poll with the
// typed chain attached. Addresses outside [0, Capacity) panic: callers own
// admission of addresses, as with the pool decoder.
func (f *Fabric) Submit(r openloop.Request) (uint64, error) {
	if r.Off < 0 || r.Len <= 0 || r.Off+int64(r.Len) > f.Capacity() {
		panic(fmt.Sprintf("numa: request [%d,+%d) outside fabric capacity %d", r.Off, r.Len, f.Capacity()))
	}
	src := r.Socket
	if src < 0 || src >= f.Cfg.Sockets {
		src = 0
	}
	f.nextID++
	f.led.Submit(r.Write)
	// Split at chunk boundaries, merging consecutive chunks with the same
	// serving socket so a request crossing an un-re-homed span stays one op.
	segs := f.segScratch[:0]
	for off, n := r.Off, r.Len; n > 0; {
		run := min(int(f.Cfg.ChunkBytes-off%f.Cfg.ChunkBytes), n)
		if k := len(segs) - 1; k >= 0 && f.ownerOf(segs[k].Off) == f.ownerOf(off) &&
			f.localOff(segs[k].Off)+int64(segs[k].Len) == f.localOff(off) {
			segs[k].Len += run
		} else {
			segs = append(segs, pool.Extent{Off: off, Len: run})
		}
		off += int64(run)
		n -= run
	}
	f.segScratch = segs
	// The fabric's origin is 0, so its instants are its durations.
	req := f.reqs.New(pool.Request{
		ID:      f.nextID,
		Tenant:  r.Tenant,
		Home:    src,
		Arrival: sim.Time(r.Arrival),
		Write:   r.Write,
		InSub:   true,
		Bytes:   r.Len,
	}, segs)
	if r.Deadline > 0 {
		req.Deadline = sim.Time(r.Arrival + r.Deadline)
	}
	for i := range segs {
		f.dispatch(req.Piece(i))
	}
	req.InSub = false
	if req.Remaining == 0 {
		// Every piece resolved synchronously (admission refusal or typed
		// fast-fail): hand the caller the typed chain, pool-style — the
		// outcome counters are already settled, no Completion record. The
		// record is back on the free list, unchanged until the next New.
		return req.ID, req.Err
	}
	return req.ID, nil
}

// dispatch routes one piece through the directory and submits it to its
// serving pool, paying the request-path interconnect transfer. It is the
// single choke point for the post-evacuation invariant: a piece whose
// serving socket is at or past Evacuating is refused typed here, before
// any pool sees it. The retry queue promotes retried pieces here too: only
// a piece that has failed before has attempts, and it counts as promoted.
func (f *Fabric) dispatch(op *pool.Piece) {
	if op.Attempts > 0 {
		f.ctr.Inc("fab-retry-promoted")
	}
	r := op.Req
	dst := f.ownerOf(op.Off)
	h := &f.sup.Kids[dst]
	if h.State >= pool.HealthCondemned {
		f.ctr.Inc("refused-evacuated")
		f.retire(r, sim.Time(f.now), fmt.Errorf("numa: socket %d %s (%s): %w", dst, SocketState(h.State), h.Reason, ErrSocketEvacuated))
		return
	}
	at := max(r.Arrival, sim.Time(f.now))
	xb := 64 // request descriptor
	if r.Write {
		xb += op.N // write payload rides the request path
	}
	arrive := sim.Time(f.links.xfer(r.Home, dst, xb, sim.Duration(at)))
	var budget sim.Duration
	if dl := r.Deadline; dl > 0 {
		budget = dl.Sub(arrive)
		if budget <= 0 {
			// The wire alone eats the whole budget: fail fast, typed, without
			// burning a pool slot.
			f.ctr.Inc("expired-on-wire")
			f.retire(r, arrive, fmt.Errorf("numa: link transfer lands %v past deadline: %w",
				arrive.Sub(dl), pool.ErrDeadlineExceeded))
			return
		}
	}
	if r.Home != dst && !r.Remote {
		r.Remote = true
		f.ctr.Inc("remote-requests")
	}
	if h.State >= pool.HealthCondemned {
		// Unreachable (checked above) but kept as the counted invariant:
		// any submission past this point to an evacuating socket is a bug
		// CheckHealth must surface.
		f.postEvacSubmissions++
	}
	f.sup.Wake(dst)
	pid, err := f.socks[dst].pool.Submit(openloop.Request{
		Arrival:  sim.Duration(arrive),
		Deadline: budget,
		Tenant:   r.Tenant,
		Socket:   dst,
		Off:      f.localOff(op.Off),
		Len:      op.N,
		Write:    r.Write,
	})
	if err != nil {
		// Synchronous typed refusal (admission shed / tenant throttle).
		f.retire(r, arrive, err)
		return
	}
	f.socks[dst].pend[pid] = op
}

// maxRetries bounds cross-socket re-dispatch of typed-failed requests.
const maxRetries = 4

// fabricTyped lists the sentinels that make a fabric failure typed: the
// pool's plus the socket-level ones.
var fabricTyped = []error{pool.ErrMemberQuarantined, pool.ErrPoolDegraded, ErrSocketEvacuated, ErrFabricDegraded}

// retire folds one terminal piece, and its error err (nil for a success),
// into its request (pool.Request.Fold). The last piece retires the request
// through the ledger, in pool outcome terms, records its latency, and
// returns the record to the free list.
func (f *Fabric) retire(r *pool.Request, at sim.Time, err error) {
	if !r.Fold(at, err) {
		return
	}
	c := r.Completion(f.led.Retire(r.Write, r.Late(), r.Err, fabricTyped))
	if c.Outcome == pool.OutcomeCompleted {
		if r.Remote {
			f.latRemote.Record(c.Latency)
		} else {
			f.lat.Record(c.Latency)
		}
		if len(f.sup.Jobs) > 0 {
			f.latMigrate.Record(c.Latency)
		}
	}
	f.reqs.Retire(r, c)
}

// Step advances the fabric one epoch: boundary bookkeeping (link faults,
// retry promotion, migration issue) in canonical order, every socket pool
// one epoch in canonical socket order, then completion collection, socket
// probes and migration sweep — all single-threaded at the boundary. A
// parked socket is skipped until the epoch its horizon runs out, where it
// catches up through that epoch instead of stepping (Supervisor.Skip).
func (f *Fabric) Step() {
	f.sup.Epochs++
	f.applyLinkFaults()
	f.sup.Promote(f.dispatch)
	f.issueMigrations()
	f.sup.Boundary = f.sup.Epochs
	for i, s := range f.socks {
		if !f.sup.Skip(i, f.sup.Epochs) {
			s.pool.Step()
		}
	}
	f.collect()
	f.sup.Settle()
	f.park()
	f.now += f.epoch
}

// park parks every socket that has just advanced and can sit out the
// coming epochs: lookahead is on, no migration job runs, the fabric has no
// piece pending on it, its pool is quiesced, and its pool's QuietEpochs
// proves a horizon (Supervisor.Park). The socket's pool may then cover any
// part of that horizon with one StepQuiet, byte-identical to the Steps it
// skipped. Every place the fabric submits to a socket or hands its pool out
// wakes it first: dispatch, startMigration (which wakes every socket before
// migSubmit's copies), Socket, Stats and CheckHealth. Quiesced and collect
// find nothing a quiet span could change on a parked socket.
func (f *Fabric) park() {
	if f.Cfg.DisableLookahead || len(f.sup.Jobs) > 0 {
		return
	}
	for i, s := range f.socks {
		if f.sup.Kids[i].Parked || len(s.pend)+len(s.mig) != 0 || !s.pool.Quiesced() {
			continue
		}
		f.sup.Park(i, f.sup.Epochs+s.pool.QuietEpochs(f.Cfg.MaxEpochs-f.sup.Epochs))
	}
}

// collect drains every socket's completions in socket order and folds them
// into fabric requests, paying the return-path transfer for completed
// remote pieces (a read's payload rides home; acks are descriptor-sized).
// A failed piece goes through the retry decision (Supervisor.Retry), whose
// ETA term is the link latency: the failure usually means the serving
// socket just degraded, and the probe/evacuation machinery is re-homing its
// chunks, so the retry re-dispatches through the directory.
func (f *Fabric) collect() {
	for si, s := range f.socks {
		if f.sup.Kids[si].Parked {
			continue // nothing pending on it
		}
		f.drain = s.pool.Poll(f.drain[:0], 0)
		for _, c := range f.drain {
			at := sim.Time(c.At.Sub(s.pool.Origin()))
			if op, ok := s.pend[c.ID]; ok {
				delete(s.pend, c.ID)
				switch c.Outcome {
				case pool.OutcomeCompleted:
					rb := 64
					if !op.Req.Write {
						rb += op.N
					}
					f.retire(op.Req, sim.Time(f.links.xfer(si, op.Req.Home, rb, sim.Duration(at))), nil)
				case pool.OutcomeFailed:
					if v, err := f.sup.Retry(op, c.Err, sim.Time(f.now), f.Cfg.XLat, f.ctr); v != pool.RetryQueued {
						f.retire(op.Req, at, err)
					}
				default: // shed / expired / throttled, asynchronously
					f.retire(op.Req, at, c.Err)
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
	return f.reqs.Poll(dst, max)
}

// Quiesced reports whether every submitted request is terminal and no
// background work (retries, migrations, in-flight pieces) remains.
func (f *Fabric) Quiesced() bool {
	if f.led.Terminal() != f.led.Submitted || len(f.sup.Retries) != 0 || len(f.sup.Jobs) != 0 {
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
// The horizon is then bounded by the supervisor's (Supervisor.Horizon:
// socket probes, retry readiness, parked sockets' horizons) and by the
// fabric's own boundary events:
//
//   - each future LinkFault's epoch, minus one, so the fault fires on a
//     real Step;
//   - each live socket pool's own QuietEpochs, which carries the pool's
//     probe, retry, deadline and breaker bounds.
//
// Link busy-until horizons need no bound: a quiet batch moves no byte over
// the interconnect.
func (f *Fabric) QuietEpochs(limit int) int {
	if f.Cfg.DisableLookahead || limit <= 1 || len(f.sup.Jobs) > 0 {
		return 0
	}
	for _, s := range f.socks {
		if len(s.pend)+len(s.mig) != 0 {
			return 0
		}
	}
	k := f.sup.Horizon(limit)
	for _, lf := range f.Cfg.LinkFaults {
		if lf.Epoch > f.sup.Epochs {
			k = min(k, lf.Epoch-f.sup.Epochs-1)
		}
	}
	for i, s := range f.socks {
		if !f.sup.Kids[i].Parked {
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
// the span jumps; the final epoch's runs last, as in Step (Supervisor.Jump).
func (f *Fabric) StepQuiet(k int) {
	f.sup.Jump(k)
	f.sup.Boundary = f.sup.Epochs
	for i, s := range f.socks {
		if !f.sup.Skip(i, f.sup.Epochs) {
			s.pool.StepQuiet(k)
		}
	}
	f.now += sim.Duration(k) * f.epoch
	f.sup.Settle()
	f.park()
}

// Drain steps the fabric until it quiesces (the shared driver,
// pool.Drain).
func (f *Fabric) Drain() error { return pool.Drain(f) }

// Run feeds the stream next yields through the fabric and drains it (the
// shared driver, pool.Run): quiet spans batch through QuietEpochs/StepQuiet,
// and with DisableLookahead every epoch is a full Step, the lockstep oracle.
// It discards the completion records.
func (f *Fabric) Run(next func() (openloop.Request, bool)) error { return pool.Run(f, next, nil) }

// Elapsed returns the current boundary (pool.Plane); it equals Now.
func (f *Fabric) Elapsed() sim.Duration { return f.now }

// Epoch returns the epoch length.
func (f *Fabric) Epoch() sim.Duration { return f.epoch }

// Epochs returns the fabric epochs taken so far.
func (f *Fabric) Epochs() int { return f.sup.Epochs }

// MaxEpochs returns the wedge guard.
func (f *Fabric) MaxEpochs() int { return f.Cfg.MaxEpochs }

// Ledger returns the fabric's outcome ledger.
func (f *Fabric) Ledger() pool.Ledger { return f.led }
