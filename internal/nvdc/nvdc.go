// Package nvdc is the NVDIMM-C device driver (§IV-B/§IV-C): the software
// half of the co-design. It exposes the Z-NAND capacity as a block device
// whose blocks are served from the reserved DRAM region, manages that region
// as a fully associative 4 KB-slot cache (LRC by default), orchestrates
// cachefill and writeback through the CP area, and maintains CPU-cache
// coherence around the NVMC's invisible tRFC-window transfers (§V-B) with
// explicit clflush/sfence.
//
// All driver work is expressed against the simulated machine: CP commands
// are iMC bus writes into the CP area, acks are polled with uncached bus
// reads, and CPU-side costs (victim search, PTE and metadata updates, cache
// flushes) are charged as simulated time on the driver lock so that
// multi-thread contention behaves like the real lock would.
package nvdc

import (
	"errors"
	"fmt"
	"sort"

	"nvdimmc/internal/cp"
	"nvdimmc/internal/cpucache"
	"nvdimmc/internal/hostmem"
	"nvdimmc/internal/imc"
	"nvdimmc/internal/metrics"
	"nvdimmc/internal/sim"
)

// PageSize is the driver's management granularity (§IV-B: mappings of
// Z-NAND and DRAM pages are kept at 4 KB).
const PageSize = 4096

// Typed failures the hardened driver surfaces to callers.
var (
	// ErrReadOnly: the writeback path failed hard, so the driver refuses
	// writes (and any miss that would need an eviction writeback) to keep
	// already-acked data safe in DRAM.
	ErrReadOnly = errors.New("nvdc: device is read-only")
	// ErrMediaRead: a cachefill kept failing after retries (uncorrectable
	// NAND read).
	ErrMediaRead = errors.New("nvdc: media read failed")
)

// CPTimeoutError reports a CP command whose ack never validated within the
// configured simulated-time deadline, across all re-issues.
type CPTimeoutError struct {
	Opcode   cp.Opcode
	Slot     int
	Attempts int
}

func (e *CPTimeoutError) Error() string {
	return fmt.Sprintf("nvdc: CP %v on mailbox slot %d: no valid ack after %d attempts",
		e.Opcode, e.Slot, e.Attempts)
}

// Mode is the driver's degradation state. Transitions are forward-only:
// Healthy -> Degraded -> ReadOnly.
type Mode int

const (
	// ModeHealthy: normal cached operation.
	ModeHealthy Mode = iota
	// ModeDegraded: the cache is suspect (a slot was quarantined after a
	// hard cachefill failure); the driver still serves reads and writes
	// but writes each acked store through to the NVM media immediately so
	// the DRAM cache never holds the only copy.
	ModeDegraded
	// ModeReadOnly: the writeback path failed hard; dirty data cannot be
	// persisted, so writes are refused. Resident pages stay readable and
	// misses are served only from free slots (no evictions).
	ModeReadOnly
)

func (m Mode) String() string {
	switch m {
	case ModeHealthy:
		return "healthy"
	case ModeDegraded:
		return "degraded"
	case ModeReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Error-path counter names (metrics.Counters keys).
const (
	CtrAckTimeout      = "cp.ack.timeout"
	CtrAckChecksumBad  = "cp.ack.checksum_bad"
	CtrCPReissue       = "cp.reissue"
	CtrCachefillRetry  = "cachefill.retry"
	CtrCachefillFail   = "cachefill.hard_fail"
	CtrWritebackFail   = "writeback.hard_fail"
	CtrSlotQuarantined = "slot.quarantined"
	CtrModeDegraded    = "mode.degraded"
	CtrModeReadOnly    = "mode.readonly"
	CtrWriteThrough    = "write.through"
	CtrFaultFailed     = "fault.failed"
)

// ErrorCounterNames lists the counters that may only move on a fault path.
// CtrWriteThrough is deliberately absent: it also counts legitimate msync
// write-throughs, so a healthy no-fault run can have it nonzero.
func ErrorCounterNames() []string { return append([]string(nil), errorCounters...) }

// errorCounters backs ErrorCounterNames and ErrorEvents.
var errorCounters = []string{
	CtrAckTimeout, CtrAckChecksumBad, CtrCPReissue,
	CtrCachefillRetry, CtrCachefillFail, CtrWritebackFail,
	CtrSlotQuarantined, CtrModeDegraded, CtrModeReadOnly,
	CtrFaultFailed,
}

// Config parameterizes the driver.
type Config struct {
	Layout hostmem.Layout
	// Policy selects the victim replacement algorithm (PoC: LRC).
	Policy Policy
	// TrackDirty enables dirty bits so clean victims skip writeback. The
	// PoC does not track dirtiness: every eviction writes back, which is
	// why pure-read misses still pay the writeback (§VII-B2).
	TrackDirty bool
	// CombineWBCF issues eviction writeback + cachefill as one OpCombined
	// command (future work §VII-C item 4).
	CombineWBCF bool

	// UnsafeNoFlush disables the §V-B clflush+sfence discipline before
	// writebacks and the invalidate after cachefills. FOR THE COHERENCE
	// ABLATION ONLY: with a CPU cache in the path, evictions then write
	// stale lines to NVM and fills are shadowed by stale lines — the data
	// corruption the paper's driver exists to prevent.
	UnsafeNoFlush bool

	// CPQueueDepth is the number of CP mailbox slots the driver pipelines
	// across (1 on the PoC; §VII-C item 2 needs BOTH device slots and this
	// driver-side dispatch to help). Must not exceed the NVMC's
	// CommandDepth.
	CPQueueDepth int

	// MediaWritten reports whether a block has data on the NVM media (the
	// filesystem's written/unwritten-extent knowledge; core wires it to the
	// FTL mapping). Faults on unwritten blocks taken from the FREE slot
	// pool skip the CP cachefill and zero the slot locally — without this
	// fast path the Fig. 7 free-slot phase could never reach the SSD-bound
	// 518 MB/s (a CP cachefill alone caps at ~175 MB/s). The PoC's eviction
	// path still pays the full writeback+cachefill pair (§VII-B1).
	MediaWritten func(lpn int64) bool

	// Hypothetical device mode (§VII-D1 / Fig. 12): the CP path is bypassed
	// and each miss step waits a programmable delay tD instead of talking
	// to the FPGA. Data is NOT moved (the hypothetical PoC's FPGA "does
	// nothing"), so this mode is for performance experiments only.
	Hypothetical bool
	TD           sim.Duration
	// TDOverlap is the fraction of each wait hidden by pipelining with the
	// driver's own mapping work and the ack-free hypothetical path. The
	// exposed stall per miss is tdWaits*TD*(1-TDOverlap). Calibrated so the
	// single-thread Fig. 12 bandwidths land near the paper's.
	TDOverlap float64
}

// DefaultConfig returns the PoC-like driver configuration for the layout.
func DefaultConfig(layout hostmem.Layout) Config {
	return Config{
		Layout:     layout,
		Policy:     PolicyLRC,
		TrackDirty: false,
		TDOverlap:  0.7,
	}
}

// CPU-side cost model.
const (
	mapCost         = 1200 * sim.Nanosecond // victim search + PTE + metadata update per miss
	flushCost4K     = 2 * sim.Microsecond   // clflush loop over one 4 KB slot + sfence
	cpWriteCost     = 300 * sim.Nanosecond  // build/store/flush the CP cacheline
	ackPollInterval = 600 * sim.Nanosecond  // delay between ack polls
)

// ackTimeout is the hard simulated-time deadline for one CP command
// attempt: if no checksum-valid ack carrying the expected phase bit appears
// within this window, the driver re-issues the command with a freshly
// toggled phase bit. The NVMC treats the re-issue as a new command;
// cachefill and writeback are idempotent page moves, so re-execution after
// a lost or corrupt ack is safe. 1.5 ms is several times the worst healthy
// command latency.
const ackTimeout = 1500 * sim.Microsecond

// cpRetries bounds total issues (first + re-issues) per CP command before
// the driver gives up with a CPTimeoutError.
const cpRetries = 4

// cachefillRetries bounds whole-command retries after the device acks a
// cachefill with an error status (transient NAND read upsets clear on a
// reread).
const cachefillRetries = 3

// tdWaits is the nominal number of refresh-window delays per miss in the
// hypothetical device mode (3 per §V-A: poll, data, status).
const tdWaits = 3

// Stats aggregates driver behaviour.
type Stats struct {
	Hits, Misses    uint64
	Evictions       uint64
	Writebacks      uint64
	Cachefills      uint64
	CombinedCmds    uint64
	AckPolls        uint64
	CoalescedFaults uint64 // faults that piggybacked on an in-flight miss
	FastFills       uint64 // free-slot fills of unwritten blocks (no CP)
	FreeSlots       int
	ResidentPages   int

	// Robustness snapshot (the per-event accounting lives in Counters()).
	Mode             Mode
	SlotsQuarantined int
}

type slotState struct {
	lpn   int64 // -1 if free
	dirty bool
	// gen counts write faults on the slot; FlushLPN uses it to avoid
	// clearing a dirty bit set by a store that raced the flush.
	gen uint64
}

const noLPN = int64(-1)

// zeroPage is the source of every fast fill. It is never written:
// imc.WriteRS copies its input, so one shared page serves every driver.
var zeroPage [PageSize]byte

// zeroAck clears an ack cacheline before a re-issue (imc.WriteRS copies it).
var zeroAck [8]byte

type cpRequest struct {
	cmd  cp.Command
	done func(status cp.Status, err error)
}

// cpSlot is one CP mailbox slot and the record of the command it carries:
// the request, the attempt, the ack deadline and backoff interval, and the
// command and ack words the bus moves. Its steps are bound once, when the
// slot is made. A slot belongs to one driver boot: recovery replaces every
// slot, and a step of an earlier boot's slot is a no-op (see stale).
type cpSlot struct {
	d     *Driver
	idx   int
	boot  uint64
	phase bool
	busy  bool

	req      cpRequest
	attempt  int
	deadline sim.Time
	interval sim.Duration
	word     [16]byte
	ack      [8]byte

	issueFn, writeCmdFn, cmdWrittenFn, pollFn, ackReadFn func()
}

func (d *Driver) newCPSlot(idx int, phase bool) *cpSlot {
	sl := &cpSlot{d: d, idx: idx, boot: d.boot, phase: phase}
	sl.issueFn = sl.issue
	sl.writeCmdFn = sl.writeCmd
	sl.cmdWrittenFn = sl.cmdWritten
	sl.pollFn = sl.poll
	sl.ackReadFn = sl.ackRead
	return sl
}

// stale reports whether sl belongs to an earlier boot of its driver.
func (sl *cpSlot) stale() bool { return sl.boot != sl.d.boot }

// waiter is one fault waiting on a miss.
type waiter struct {
	done  func(slot int, err error)
	write bool
}

// miss is one DRAM-cache miss in flight: the faulting page, the slot it
// claimed, the victim it evicts and the faults coalesced on it. It carries
// every step from the slot claim to the install, each bound once, when the
// record is first made. Records recycle through the driver's free list when
// the miss ends (installed or failed). A miss belongs to the boot it started
// in: after recovery its queued steps are no-ops and the record is dropped.
type miss struct {
	d       *Driver
	boot    uint64
	lpn     int64
	slot    int
	victim  int64
	needWB  bool
	attempt int
	waiters []waiter

	claimFn, fastFilledFn, flushedFn, filledFn, installFn func()
	writtenFn, cachefilledFn                              func(cp.Status, error)
}

// stale reports whether m started in an earlier boot of its driver.
func (m *miss) stale() bool { return m.boot != m.d.boot }

// Driver is the nvdc driver instance for one NVDIMM-C module.
type Driver struct {
	k     *sim.Kernel
	mc    *imc.Controller
	cache *cpucache.Cache // optional functional CPU cache
	cfg   Config

	slots   []slotState
	free    []int
	mapping map[int64]int // block lpn -> slot
	rep     replacer

	inflight map[int64]*miss
	missFree []*miss

	// Degradation state (forward-only; see Mode).
	mode        Mode
	quarantined []int

	// halted: the host lost power. Pending ack polls, CP issues and new
	// faults become silent no-ops — after the failure instant no driver code
	// runs, so nothing may count errors or complete callbacks. Cleared by
	// RecoverFromMetadata (the reboot).
	halted bool
	// boot counts reboots (RecoverFromMetadata). CP slots and misses record
	// the boot they belong to; a step queued before a reboot finds its
	// record stale when it fires and does nothing.
	boot uint64

	// OnModeChange, if set, observes degradation transitions (core wires a
	// logger/metric; tests assert on it).
	OnModeChange func(to Mode, reason string)

	// errs counts every error, retry and degradation event by name.
	errs *metrics.Counters
	// errSum caches ErrorEvents, valid while errs.Changes() == errSeen.
	errSum, errSeen uint64

	// CP mailbox slots: the PoC has one; with CPQueueDepth > 1 the driver
	// round-robins commands across slots and polls their acks concurrently.
	cpSlots []*cpSlot
	cpQueue []cpRequest

	// lock serializes the driver's mapping-manipulation critical sections.
	lock *sim.Resource

	// metaShadow is the driver's authoritative copy of the metadata area;
	// metaSum is its checksum, kept current one slot term at a time.
	metaShadow  []byte
	metaEntries []cp.MetaEntry
	metaSum     uint64

	capacityPages int64

	stats Stats
}

// New builds a driver over the iMC-attached module. capacityPages is the
// block device size in 4 KB pages (the FTL's logical capacity). cache may be
// nil when only the timing path is exercised.
func New(k *sim.Kernel, mc *imc.Controller, cache *cpucache.Cache, capacityPages int64, cfg Config) (*Driver, error) {
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	if cp.MaxMetaEntries(cfg.Layout.MetaSize) < cfg.Layout.NumSlots {
		return nil, fmt.Errorf("nvdc: metadata area (%d B) cannot index %d slots",
			cfg.Layout.MetaSize, cfg.Layout.NumSlots)
	}
	if cfg.CPQueueDepth < 1 {
		cfg.CPQueueDepth = 1
	}
	d := &Driver{
		k:             k,
		mc:            mc,
		cache:         cache,
		cfg:           cfg,
		slots:         make([]slotState, cfg.Layout.NumSlots),
		mapping:       make(map[int64]int),
		rep:           newReplacer(cfg.Policy, cfg.Layout.NumSlots),
		inflight:      make(map[int64]*miss),
		errs:          metrics.NewCounters(),
		lock:          sim.NewResource(k, "nvdc-lock"),
		metaShadow:    make([]byte, cfg.Layout.MetaSize),
		metaEntries:   make([]cp.MetaEntry, cfg.Layout.NumSlots),
		capacityPages: capacityPages,
	}
	for i := range d.slots {
		d.slots[i].lpn = noLPN
		d.free = append(d.free, i)
	}
	for i := 0; i < cfg.CPQueueDepth; i++ {
		d.cpSlots = append(d.cpSlots, d.newCPSlot(i, false))
	}
	if err := cp.EncodeMeta(d.metaShadow, d.metaEntries); err != nil {
		return nil, err
	}
	d.metaSum = cp.MetaChecksum(d.metaEntries)
	// Initialize the metadata area in DRAM so a power failure before any
	// mapping change finds a valid (empty) table.
	mc.Write(cfg.Layout.MetaOffset, d.metaShadow, nil)
	return d, nil
}

// CapacityPages returns the block device size in 4 KB pages.
func (d *Driver) CapacityPages() int64 { return d.capacityPages }

// Stats returns a snapshot of the driver counters.
func (d *Driver) Stats() Stats {
	s := d.stats
	s.FreeSlots = len(d.free)
	s.ResidentPages = len(d.mapping)
	s.Mode = d.mode
	s.SlotsQuarantined = len(d.quarantined)
	return s
}

// Counters exposes the error/retry/degradation event counters.
func (d *Driver) Counters() *metrics.Counters { return d.errs }

// Health is an exported point-in-time snapshot of the driver's degradation
// state, shaped for layered health checks: the socket pool's member probes
// fold it — together with the conformance auditor's violation count — into
// the pool-level member state machine without reaching into driver
// internals.
type Health struct {
	// Mode is the Healthy -> Degraded -> ReadOnly lattice position.
	Mode Mode
	// SlotsQuarantined counts DRAM cache slots retired after hard failures.
	SlotsQuarantined int
	// HardFailures counts unrecoverable command failures (cachefill or
	// writeback exhausted its retries): any nonzero value means the driver
	// has degraded and some data path is gone.
	HardFailures uint64
	// Transients counts recovered error events (ack timeouts, CP re-issues,
	// checksum rejects, cachefill read-retries): noise that a health prober
	// treats as suspicion, not failure.
	Transients uint64
	// ErrorEvents is the sum over every error-path counter
	// (ErrorCounterNames); deltas between probes measure error rate.
	ErrorEvents uint64
}

// Health snapshots the driver's degradation state.
func (d *Driver) Health() Health {
	return Health{
		Mode:             d.mode,
		SlotsQuarantined: len(d.quarantined),
		HardFailures:     d.errs.Sum(CtrCachefillFail, CtrWritebackFail),
		Transients:       d.errs.Sum(CtrAckTimeout, CtrAckChecksumBad, CtrCPReissue, CtrCachefillRetry),
		ErrorEvents:      d.errs.Sum(errorCounters...),
	}
}

// ErrorEvents is Health().ErrorEvents without the rest of the snapshot: the
// sum over every error-path counter, for probes that read only the delta.
// Pool and fabric probes read it for every member at every boundary, so the
// sum is cached against the counter set's change count: a caller that bumps
// a counter directly (Counters().Inc) moves that count too.
func (d *Driver) ErrorEvents() uint64 {
	if n := d.errs.Changes(); n != d.errSeen {
		d.errSum, d.errSeen = d.errs.Sum(errorCounters...), n
	}
	return d.errSum
}

// ResidentPage describes one DRAM-cache-resident page: what a rebuild scan
// must replay onto a replacement module to evacuate this one.
type ResidentPage struct {
	LPN   int64
	Dirty bool
}

// Resident returns the resident pages in ascending LPN order. The mapping is
// map-backed, so the sort is what makes evacuation scans deterministic — the
// pool's spare-DIMM rebuild iterates this slice in order and replays it
// through the spare's write path.
func (d *Driver) Resident() []ResidentPage {
	out := make([]ResidentPage, 0, len(d.mapping))
	for lpn, slot := range d.mapping {
		out = append(out, ResidentPage{LPN: lpn, Dirty: d.slots[slot].dirty})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LPN < out[j].LPN })
	return out
}

// Mode reports the driver's degradation state.
func (d *Driver) Mode() Mode { return d.mode }

// Quarantined returns the slots retired after hard cachefill failures.
func (d *Driver) Quarantined() []int { return append([]int(nil), d.quarantined...) }

// Halt freezes the driver at a power-failure instant: in-flight ack polls
// and CP issues stop without counting timeouts against a dead host, and new
// faults are dropped (their callers no longer exist). RecoverFromMetadata
// lifts the halt — the reboot.
func (d *Driver) Halt() { d.halted = true }

// degrade moves the driver forward in the degradation lattice; backward
// transitions are ignored (a ReadOnly device never self-heals — recovery is
// an operator action through a fresh Driver).
func (d *Driver) degrade(to Mode, reason string) {
	if to <= d.mode {
		return
	}
	d.mode = to
	switch to {
	case ModeDegraded:
		d.errs.Inc(CtrModeDegraded)
	case ModeReadOnly:
		d.errs.Inc(CtrModeReadOnly)
	}
	if d.OnModeChange != nil {
		d.OnModeChange(to, reason)
	}
}

// quarantine retires a DRAM cache slot: it never returns to the free pool
// and never hosts a mapping again. The driver cannot tell a failing DRAM
// slot from a failing transfer path, so it conservatively removes the slot
// that was involved in a hard failure from circulation.
func (d *Driver) quarantine(slot int) {
	d.quarantined = append(d.quarantined, slot)
	d.errs.Inc(CtrSlotQuarantined)
	d.setMeta(slot, cp.MetaEntry{})
}

// failInflight ends miss m with err: every coalesced waiter gets it.
func (d *Driver) failInflight(m *miss, err error) {
	delete(d.inflight, m.lpn)
	d.errs.Inc(CtrFaultFailed)
	for _, w := range m.waiters {
		d.wake(w, -1, err)
	}
	d.releaseMiss(m)
}

// wake delivers a miss's outcome to one waiter.
func (d *Driver) wake(w waiter, slot int, err error) {
	if err != nil {
		w.done(-1, err)
		return
	}
	if w.write {
		d.markDirty(slot)
	}
	w.done(slot, nil)
}

// newMiss returns a miss record for lpn, bound to the current boot.
func (d *Driver) newMiss(lpn int64) *miss {
	var m *miss
	if n := len(d.missFree); n > 0 {
		m = d.missFree[n-1]
		d.missFree = d.missFree[:n-1]
	} else {
		m = &miss{d: d}
		m.claimFn = m.claim
		m.fastFilledFn = m.fastFilled
		m.flushedFn = m.flushed
		m.filledFn = m.filled
		m.installFn = m.install
		m.writtenFn = m.written
		m.cachefilledFn = m.cachefilled
	}
	m.boot, m.lpn, m.attempt = d.boot, lpn, 0
	return m
}

// releaseMiss returns an ended miss to the free list; its waiters have
// been woken.
func (d *Driver) releaseMiss(m *miss) {
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	d.missFree = append(d.missFree, m)
}

// Config returns the driver configuration.
func (d *Driver) Config() Config { return d.cfg }

// SlotOf reports the slot caching lpn, or -1.
func (d *Driver) SlotOf(lpn int64) int {
	if s, ok := d.mapping[lpn]; ok {
		return s
	}
	return -1
}

// IsResident reports whether lpn is in the DRAM cache.
func (d *Driver) IsResident(lpn int64) bool { return d.SlotOf(lpn) >= 0 }

// Serialize runs fn after holding the driver's device lock for hold time —
// the per-op radix-tree lookup and coherence bookkeeping every fsdax access
// performs. Miss-path critical sections contend on the same lock.
func (d *Driver) Serialize(hold sim.Duration, fn func()) {
	d.lock.Hold(hold, fn)
}

// --- Fault path -----------------------------------------------------------

// Fault is the DAX page-fault path (Fig. 6): it guarantees lpn is resident
// and calls done with its slot. write marks the slot dirty. Concurrent
// faults on the same lpn coalesce onto one miss. Fault keeps the legacy
// error-free signature for callers that run without fault injection; any
// driver error (impossible in a healthy, fault-free system) panics. Code
// that must survive injected failures uses FaultE.
func (d *Driver) Fault(lpn int64, write bool, done func(slot int)) {
	d.FaultE(lpn, write, func(slot int, err error) {
		if err != nil {
			panic(fmt.Sprintf("nvdc: fault lpn %d: %v", lpn, err))
		}
		done(slot)
	})
}

// FaultE is the error-carrying fault path: done receives the resident slot,
// or -1 and the reason residency could not be established (read-only mode,
// CP transport exhaustion, uncorrectable media reads).
func (d *Driver) FaultE(lpn int64, write bool, done func(slot int, err error)) {
	if lpn < 0 || lpn >= d.capacityPages {
		panic(fmt.Sprintf("nvdc: fault lpn %d out of device range %d", lpn, d.capacityPages))
	}
	if d.halted {
		return
	}
	if write && d.mode == ModeReadOnly {
		d.errs.Inc(CtrFaultFailed)
		done(-1, fmt.Errorf("write fault on lpn %d: %w", lpn, ErrReadOnly))
		return
	}
	if slot, ok := d.mapping[lpn]; ok {
		d.stats.Hits++
		d.rep.Touch(slot)
		if write {
			d.markDirty(slot)
		}
		done(slot, nil)
		return
	}
	if m, ok := d.inflight[lpn]; ok {
		d.stats.CoalescedFaults++
		m.waiters = append(m.waiters, waiter{done: done, write: write})
		return
	}
	d.stats.Misses++
	m := d.newMiss(lpn)
	m.waiters = append(m.waiters, waiter{done: done, write: write})
	d.inflight[lpn] = m
	// Step 1 (under the driver lock): claim a slot, evicting if needed.
	d.Serialize(mapCost/2, m.claimFn)
}

func (d *Driver) markDirty(slot int) {
	d.slots[slot].gen++
	if !d.slots[slot].dirty {
		d.slots[slot].dirty = true
		e := d.metaEntries[slot]
		e.Dirty = true
		d.setMeta(slot, e)
	}
}

// claim runs under the driver lock: it claims a slot for the miss, evicting
// if needed, then zero-fills it locally or starts the CP transfer.
func (m *miss) claim() {
	d := m.d
	if m.stale() {
		return
	}
	// Read-only mode never evicts: an eviction would either need the
	// broken writeback path or discard a page the driver can no
	// longer re-fetch safely. Misses are served from free slots only.
	if d.mode == ModeReadOnly && len(d.free) == 0 {
		d.failInflight(m, fmt.Errorf("miss on lpn %d needs an eviction: %w", m.lpn, ErrReadOnly))
		return
	}
	m.slot, m.victim, m.needWB = d.claimSlot()
	// Fast path: a free slot for a block with nothing on the media
	// needs no CP round trip — zero the slot locally and map it.
	// Without this path the Fig. 7 free-slot phase could never be
	// SSD-bound (a CP cachefill alone caps at ~175 MB/s).
	if m.victim == noLPN && !m.needWB && !d.cfg.Hypothetical &&
		d.cfg.MediaWritten != nil && !d.cfg.MediaWritten(m.lpn) {
		d.stats.FastFills++
		d.mc.Write(d.cfg.Layout.SlotAddr(m.slot), zeroPage[:], m.fastFilledFn)
		return
	}
	m.transfer()
}

// fastFilled runs when the fast fill's zeros are in the slot.
func (m *miss) fastFilled() {
	d := m.d
	if m.stale() {
		return
	}
	if d.cache != nil {
		d.cache.Invalidate(d.cfg.Layout.SlotAddr(m.slot), PageSize)
	}
	d.Serialize(mapCost/2, m.installFn)
}

// claimSlot picks the slot that will receive lpn's data. It returns the
// victim's lpn (noLPN if the slot was free) and whether a writeback is
// needed.
func (d *Driver) claimSlot() (slot int, victimLPN int64, needWB bool) {
	if len(d.free) > 0 {
		slot = d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
		return slot, noLPN, false
	}
	slot = d.rep.Victim()
	if slot < 0 {
		panic("nvdc: no free slot and no victim")
	}
	d.stats.Evictions++
	victimLPN = d.slots[slot].lpn
	// Unmap immediately: concurrent access to the victim page becomes a
	// miss that queues behind this slot transition via the CP mailbox.
	delete(d.mapping, victimLPN)
	needWB = !d.cfg.TrackDirty || d.slots[slot].dirty
	d.slots[slot].lpn = noLPN
	// Crash consistency: while the eviction writeback is still in flight the
	// victim's bytes exist ONLY in this DRAM slot, and the power-fail flush
	// persists exactly what the metadata table says is valid and dirty. So
	// the entry stays {victim, Valid, Dirty} until the writeback is acked
	// Done (transfer invalidates it just before the cachefill overwrites the
	// slot). Clean victims — and the combined-command mode, whose single
	// opcode gives no point between writeback and fill to flip the entry —
	// invalidate up front as before.
	if !needWB || d.cfg.CombineWBCF {
		e := d.metaEntries[slot]
		e.Valid = false
		d.setMeta(slot, e)
	}
	return slot, victimLPN, needWB
}

// transfer performs writeback (if needed) then cachefill, then installs the
// mapping.
func (m *miss) transfer() {
	d := m.d
	if d.cfg.Hypothetical {
		// Fig. 12 mode: no FPGA communication; the driver waits tdWaits
		// programmable delays per miss (§VII-D1), of which TDOverlap is
		// hidden behind the driver's own mapping work and the ack-free
		// pipeline — the single-thread bandwidths the paper reports imply
		// an exposed stall of roughly one tD per access (see the Fig. 12
		// calibration note in EXPERIMENTS.md).
		stall := sim.Duration(float64(tdWaits) * float64(d.cfg.TD) * (1 - d.cfg.TDOverlap))
		d.k.Schedule(stall, m.filledFn)
		return
	}
	if !m.needWB {
		m.cachefill()
		return
	}
	// Coherence discipline before the NVMC reads the slot: flush + fence.
	if d.cache != nil && !d.cfg.UnsafeNoFlush {
		if err := d.cache.Clflush(d.cfg.Layout.SlotAddr(m.slot), PageSize); err != nil {
			panic(fmt.Sprintf("nvdc: clflush: %v", err))
		}
		d.cache.SFence()
	}
	d.k.Schedule(flushCost4K, m.flushedFn)
}

// flushed runs once the victim slot is flushed: it issues the eviction
// writeback (or, with CombineWBCF, the combined command).
func (m *miss) flushed() {
	d := m.d
	if m.stale() {
		return
	}
	slot, lpn, victimLPN := m.slot, m.lpn, m.victim
	if d.cfg.CombineWBCF {
		d.stats.CombinedCmds++
		d.sendCP(cp.Command{
			Opcode: cp.OpCombined,
			// Primary pair = cachefill, secondary = writeback (§cp).
			DRAMSlot: uint32(slot), NANDPage: uint32(lpn),
			DRAMSlot2: uint32(slot), NANDPage2: uint32(victimLPN),
		}, func(st cp.Status, err error) {
			if err == nil && st == cp.StatusDone {
				m.filled()
				return
			}
			if err == nil {
				err = fmt.Errorf("nvdc: combined command error status")
			}
			// The writeback half is the dangerous one: treat any
			// combined failure as a writeback failure.
			d.writebackFailed(m, err)
		})
		return
	}
	d.stats.Writebacks++
	d.sendCP(cp.Command{Opcode: cp.OpWriteback, DRAMSlot: uint32(slot), NANDPage: uint32(victimLPN)}, m.writtenFn)
}

// written completes the eviction writeback.
func (m *miss) written(st cp.Status, err error) {
	d := m.d
	if err == nil && st == cp.StatusDone {
		// The victim is on the media: drop its metadata entry BEFORE the
		// cachefill replaces the slot's bytes, or a power failure in
		// between would flush the new page's data over the victim's NAND
		// page. (With the default CPQueueDepth of 1 a re-fault on the
		// victim queues behind this transition, so no second Valid entry
		// for the same NAND page can appear meanwhile.)
		d.setMeta(m.slot, cp.MetaEntry{})
		m.cachefill()
		return
	}
	if err == nil {
		err = fmt.Errorf("nvdc: writeback error status")
	}
	d.writebackFailed(m, err)
}

// cachefill issues the cachefill command for attempt m.attempt.
func (m *miss) cachefill() {
	d := m.d
	d.stats.Cachefills++
	d.sendCP(cp.Command{Opcode: cp.OpCachefill, DRAMSlot: uint32(m.slot), NANDPage: uint32(m.lpn)}, m.cachefilledFn)
}

// cachefilled completes a cachefill, with bounded read-retry: an error ack
// means the NAND read came back uncorrectable; transient upsets (injected or
// real) clear on a reread, so the command is re-issued whole. Exhausting the
// retries is a hard media failure: the slot is quarantined and the driver
// degrades to write-through.
func (m *miss) cachefilled(st cp.Status, err error) {
	d := m.d
	if err == nil && st == cp.StatusDone {
		m.filled()
		return
	}
	if err == nil {
		err = fmt.Errorf("device error status on lpn %d: %w", m.lpn, ErrMediaRead)
	}
	if m.attempt+1 < cachefillRetries {
		d.errs.Inc(CtrCachefillRetry)
		m.attempt++
		m.cachefill()
		return
	}
	d.cachefillFailed(m, err)
}

// filled runs once the slot holds the page: CPU cachelines over the slot
// hold pre-fill data, so they are invalidated (§V-B) before the install.
func (m *miss) filled() {
	d := m.d
	if m.stale() {
		return
	}
	if d.cache != nil && !d.cfg.UnsafeNoFlush {
		d.cache.Invalidate(d.cfg.Layout.SlotAddr(m.slot), PageSize)
	}
	d.Serialize(mapCost/2, m.installFn)
}

// cachefillFailed ends a miss whose fill the device could not serve even
// after retries: the slot involved is retired, the driver degrades to
// write-through, and every coalesced waiter gets the error.
func (d *Driver) cachefillFailed(m *miss, err error) {
	d.errs.Inc(CtrCachefillFail)
	d.quarantine(m.slot)
	d.degrade(ModeDegraded, fmt.Sprintf("cachefill of lpn %d failed hard (slot %d quarantined)", m.lpn, m.slot))
	d.failInflight(m, fmt.Errorf("nvdc: cachefill of lpn %d: %w", m.lpn, err))
}

// writebackFailed handles a hard eviction-writeback failure. The failed
// writeback never mutated the DRAM slot, so the dirty victim's bytes are
// intact: the victim mapping is restored under the lock (no acked data is
// lost) and the driver goes read-only — it can no longer promise that a
// future eviction could persist dirty data.
func (d *Driver) writebackFailed(m *miss, err error) {
	d.errs.Inc(CtrWritebackFail)
	slot, victimLPN := m.slot, m.victim
	d.Serialize(mapCost/2, func() {
		if m.stale() {
			return
		}
		d.mapping[victimLPN] = slot
		d.slots[slot] = slotState{lpn: victimLPN, dirty: true}
		d.rep.Insert(slot)
		d.setMeta(slot, cp.MetaEntry{NANDPage: uint32(victimLPN), Valid: true, Dirty: true})
		d.degrade(ModeReadOnly, fmt.Sprintf("writeback of victim lpn %d failed hard", victimLPN))
		d.failInflight(m, fmt.Errorf("nvdc: writeback of victim lpn %d: %w", victimLPN, err))
	})
}

// install runs under the driver lock: it maps the miss's page to its slot
// (mapping + PTE + metadata update), then wakes the fault waiters and ends
// the miss.
func (m *miss) install() {
	d := m.d
	if m.stale() {
		return
	}
	lpn, slot := m.lpn, m.slot
	d.mapping[lpn] = slot
	d.slots[slot] = slotState{lpn: lpn, dirty: false}
	d.rep.Insert(slot)
	d.setMeta(slot, cp.MetaEntry{NANDPage: uint32(lpn), Valid: true})
	delete(d.inflight, lpn)
	for _, w := range m.waiters {
		d.wake(w, slot, nil)
	}
	d.releaseMiss(m)
}

// setMeta sets slot's metadata entry to e, moves the running checksum from
// the old entry's term to e's, and updates the entry and the header in the
// DRAM metadata area (two small bus writes; the CPU cost is folded into
// mapCost).
func (d *Driver) setMeta(slot int, e cp.MetaEntry) {
	d.metaSum += cp.MetaTerm(slot, e) - cp.MetaTerm(slot, d.metaEntries[slot])
	d.metaEntries[slot] = e
	if err := cp.EncodeMetaEntry(d.metaShadow, slot, e); err != nil {
		panic(fmt.Sprintf("nvdc: meta entry: %v", err))
	}
	if err := cp.EncodeMetaHeader(d.metaShadow, len(d.metaEntries), d.metaSum); err != nil {
		panic(fmt.Sprintf("nvdc: meta header: %v", err))
	}
	off := int64(16 + slot*4)
	var entry [4]byte
	copy(entry[:], d.metaShadow[off:off+4])
	var header [16]byte
	copy(header[:], d.metaShadow[:16])
	d.mc.Write(d.cfg.Layout.MetaOffset+off, entry[:], nil)
	d.mc.Write(d.cfg.Layout.MetaOffset, header[:], nil)
}

// Trim drops lpn from the cache without writeback (block discard: the
// filesystem freed the block, so its contents are dead). The slot returns
// to the free pool.
func (d *Driver) Trim(lpn int64) {
	slot, ok := d.mapping[lpn]
	if !ok {
		return
	}
	delete(d.mapping, lpn)
	d.rep.Remove(slot)
	d.slots[slot] = slotState{lpn: noLPN}
	d.free = append(d.free, slot)
	d.setMeta(slot, cp.MetaEntry{})
	if d.cache != nil {
		d.cache.Invalidate(d.cfg.Layout.SlotAddr(slot), PageSize)
	}
}

// --- CP mailbox -----------------------------------------------------------

// sendCP queues a command into the CP mailbox (queue depth 1 on the PoC,
// §IV-C; CPQueueDepth slots when pipelining) and calls done when the device
// acks it — or with an error after the ack deadline has expired cpRetries
// times.
func (d *Driver) sendCP(cmd cp.Command, done func(cp.Status, error)) {
	d.cpQueue = append(d.cpQueue, cpRequest{cmd: cmd, done: done})
	d.cpDispatch()
}

// cpDispatch hands queued commands to free mailbox slots. It pops cpQueue
// in place, so the queue keeps its capacity.
func (d *Driver) cpDispatch() {
	for _, sl := range d.cpSlots {
		if len(d.cpQueue) == 0 {
			return
		}
		if sl.busy {
			continue
		}
		sl.req = d.cpQueue[0]
		n := copy(d.cpQueue, d.cpQueue[1:])
		d.cpQueue[n] = cpRequest{}
		d.cpQueue = d.cpQueue[:n]
		d.issueCP(sl, 0)
	}
}

// CP-area layout with depth (mirrors the NVMC's): command slot i at
// cacheline 2i, its ack at cacheline 2i+1. Slot 0 matches cp's constants.
func cpCmdOffset(i int) int64 { return int64(128 * i) }
func cpAckOffset(i int) int64 { return int64(128*i + 64) }

// issueCP writes (or re-writes) sl.req's command word with a freshly toggled
// phase bit and starts the deadline-bounded ack poll. On a re-issue the ack
// cacheline is cleared first: the one-bit phase protocol cannot tell an ack
// for this attempt from a stale same-phase ack two commands back, and the
// zero word never checksum-validates, so clearing closes that ABA window.
// Re-issuing while the device still works on the earlier attempt is safe:
// the NVMC serves commands one at a time per slot, stale-phase acks are
// ignored, and the page moves themselves are idempotent.
func (d *Driver) issueCP(sl *cpSlot, attempt int) {
	if d.halted {
		return
	}
	sl.busy = true
	sl.phase = !sl.phase
	sl.attempt = attempt
	sl.req.cmd.Phase = sl.phase
	putUint64(sl.word[0:8], sl.req.cmd.Encode())
	putUint64(sl.word[8:16], sl.req.cmd.EncodeSecondary())
	// Build + store + clflush + sfence the CP cacheline, then the bus write
	// lands it in DRAM where the NVMC's next poll sees it.
	d.k.Schedule(cpWriteCost, sl.issueFn)
}

// issue runs once the CP cacheline is built: a re-issue clears the ack
// cacheline before the command write.
func (sl *cpSlot) issue() {
	d := sl.d
	if sl.stale() {
		return
	}
	if sl.attempt == 0 {
		sl.writeCmd()
		return
	}
	d.mc.Write(d.cfg.Layout.CPOffset+cpAckOffset(sl.idx), zeroAck[:], sl.writeCmdFn)
}

// writeCmd stores the command word.
func (sl *cpSlot) writeCmd() {
	d := sl.d
	if sl.stale() {
		return
	}
	d.mc.Write(d.cfg.Layout.CPOffset+cpCmdOffset(sl.idx), sl.word[:], sl.cmdWrittenFn)
}

// cmdWritten runs when the command word is in DRAM: the attempt's ack
// deadline starts and so does the poll.
func (sl *cpSlot) cmdWritten() {
	d := sl.d
	if sl.stale() {
		return
	}
	sl.deadline = d.k.Now().Add(ackTimeout)
	sl.interval = ackPollInterval
	sl.poll()
}

// poll reads the ack word. The poll continues with exponential backoff
// until a checksum-valid ack with the expected phase arrives or the
// attempt's deadline passes; the deadline re-issues (bounded) and then
// surfaces a CPTimeoutError.
func (sl *cpSlot) poll() {
	d := sl.d
	if d.halted || sl.stale() {
		return
	}
	d.stats.AckPolls++
	d.mc.Read(d.cfg.Layout.CPOffset+cpAckOffset(sl.idx), sl.ack[:], sl.ackReadFn)
}

// ackRead examines the ack word a poll fetched.
func (sl *cpSlot) ackRead() {
	d := sl.d
	if d.halted || sl.stale() {
		return
	}
	w := leUint64(sl.ack[:])
	ack := cp.DecodeAck(w)
	if ack.Phase == sl.phase && (ack.Status == cp.StatusDone || ack.Status == cp.StatusError) {
		if cp.AckChecksumOK(w) {
			sl.busy = false
			st, done := ack.Status, sl.req.done
			sl.req = cpRequest{}
			d.cpDispatch()
			done(st, nil)
			return
		}
		// Corrupt ack: the device already posted its one ack for this
		// phase, so nothing will overwrite the word — only the deadline
		// path (re-issue) recovers. Keep polling until it fires.
		d.errs.Inc(CtrAckChecksumBad)
	}
	if d.k.Now() >= sl.deadline {
		d.errs.Inc(CtrAckTimeout)
		if sl.attempt+1 < cpRetries {
			d.errs.Inc(CtrCPReissue)
			d.issueCP(sl, sl.attempt+1)
			return
		}
		sl.busy = false
		req, attempts := sl.req, sl.attempt+1
		sl.req = cpRequest{}
		d.cpDispatch()
		req.done(0, &CPTimeoutError{Opcode: req.cmd.Opcode, Slot: sl.idx, Attempts: attempts})
		return
	}
	// Exponential backoff: cheap uncached reads early (acks usually land
	// within a window or two), then progressively lazier polling so a
	// stalled device does not monopolize the bus with 64 B reads.
	wait := sl.interval
	sl.interval = wait * 2
	if max := ackPollInterval * 16; sl.interval > max {
		sl.interval = max
	}
	d.k.Schedule(wait, sl.pollFn)
}

// FlushLPN synchronously persists lpn's slot to the NVM media: a
// driver-initiated writeback that leaves the mapping intact and marks the
// slot clean. Degraded mode writes every acked store through with it, so
// the suspect DRAM cache never holds the only copy of data. A miss or
// clean slot completes immediately.
func (d *Driver) FlushLPN(lpn int64, done func(error)) {
	slot, ok := d.mapping[lpn]
	if !ok || !d.slots[slot].dirty {
		done(nil)
		return
	}
	gen := d.slots[slot].gen
	flush := func() {
		d.errs.Inc(CtrWriteThrough)
		d.stats.Writebacks++
		d.sendCP(cp.Command{Opcode: cp.OpWriteback, DRAMSlot: uint32(slot), NANDPage: uint32(lpn)},
			func(st cp.Status, err error) {
				if err == nil && st != cp.StatusDone {
					err = fmt.Errorf("nvdc: write-through of lpn %d: device error status", lpn)
				}
				if err != nil {
					// The persistence path is gone: refuse further writes.
					d.errs.Inc(CtrWritebackFail)
					d.degrade(ModeReadOnly, fmt.Sprintf("write-through of lpn %d failed hard", lpn))
					done(err)
					return
				}
				// Clear dirty only if no store raced the flush (the gen
				// guard); a racing store's bytes may postdate the clflush.
				if s, still := d.mapping[lpn]; still && s == slot && d.slots[slot].gen == gen {
					d.slots[slot].dirty = false
					e := d.metaEntries[slot]
					e.Dirty = false
					d.setMeta(slot, e)
				}
				done(nil)
			})
	}
	if d.cache != nil && !d.cfg.UnsafeNoFlush {
		if err := d.cache.Clflush(d.cfg.Layout.SlotAddr(slot), PageSize); err != nil {
			panic(fmt.Sprintf("nvdc: clflush: %v", err))
		}
		d.cache.SFence()
	}
	d.k.Schedule(flushCost4K, flush)
}

// --- Recovery ---------------------------------------------------------------

// RecoverFromMetadata rebuilds the slot map from the metadata area after a
// restart (all recovered slots are clean: the power-fail flush persisted
// them). It returns the number of recovered mappings.
func (d *Driver) RecoverFromMetadata(meta []byte) (int, error) {
	entries, err := cp.DecodeMeta(meta)
	if err != nil {
		return 0, err
	}
	if len(entries) != len(d.slots) {
		return 0, fmt.Errorf("nvdc: metadata has %d slots, driver has %d", len(entries), len(d.slots))
	}
	d.mapping = make(map[int64]int)
	d.free = d.free[:0]
	d.rep = newReplacer(d.cfg.Policy, len(d.slots))
	// Reboot: lift a power-fail halt and forget in-flight misses and
	// mailbox state. Steps still queued from before the reboot belong to
	// the old boot's slot and miss records and do nothing when they fire.
	d.halted = false
	d.boot++
	clear(d.inflight)
	clear(d.cpQueue)
	d.cpQueue = d.cpQueue[:0]
	for i, sl := range d.cpSlots {
		d.cpSlots[i] = d.newCPSlot(i, sl.phase)
	}
	n := 0
	for i, e := range entries {
		if e.Valid {
			lpn := int64(e.NANDPage)
			d.slots[i] = slotState{lpn: lpn, dirty: false}
			d.mapping[lpn] = i
			d.rep.Insert(i)
			d.metaEntries[i] = cp.MetaEntry{NANDPage: e.NANDPage, Valid: true}
			n++
		} else {
			d.slots[i] = slotState{lpn: noLPN}
			d.free = append(d.free, i)
			d.metaEntries[i] = cp.MetaEntry{}
		}
	}
	// The rebuilt table has every slot clean, unlike meta. The shadow, the
	// DRAM copy and the running checksum must all match it: a mapping
	// change rewrites only its own entry, so any stale dirty bit elsewhere
	// would leave the next header's checksum matching no table.
	if err := cp.EncodeMeta(d.metaShadow, d.metaEntries); err != nil {
		return 0, err
	}
	d.metaSum = cp.MetaChecksum(d.metaEntries)
	d.mc.Write(d.cfg.Layout.MetaOffset, d.metaShadow, nil)
	return n, nil
}

func leUint64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
