// Package core assembles the NVDIMM-C system: the paper's primary
// contribution as one object. It wires the DRAM-cache DIMM, the shared DDR4
// channel, the host iMC, the refresh detector, the NVMC (FPGA + firmware +
// FTL + Z-NAND) and the nvdc driver into a runnable machine, and exposes the
// byte-addressable load/store path an application sees through fsdax.
//
// Geometry is scale-parameterized: experiments run with smaller DRAM cache
// and NAND arrays than the 16 GB + 128 GB PoC while preserving the ratios
// the results depend on (cache:media, tRFC:tREFI, op:window).
package core

import (
	"fmt"

	"nvdimmc/internal/bus"
	"nvdimmc/internal/conform"
	"nvdimmc/internal/cpucache"
	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/dram"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/ftl"
	"nvdimmc/internal/hostmem"
	"nvdimmc/internal/imc"
	"nvdimmc/internal/nand"
	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/nvmc"
	"nvdimmc/internal/refdet"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
)

// PageSize is the system-wide 4 KB management granularity.
const PageSize = 4096

// Config sizes and parameterizes a full NVDIMM-C system.
type Config struct {
	// TREFI is the refresh cadence (7.8 us normal; 3.9 "tREFI2"; 1.95
	// "tREFI4" per §VII-D).
	TREFI sim.Duration
	// TRFC is the programmed refresh cycle (1.25 us on the PoC: 350 ns
	// JEDEC + 900 ns extra window, §IV-A).
	TRFC sim.Duration

	// CacheBytes is the DRAM-cache module size (16 GB on the PoC).
	CacheBytes int64

	// NAND geometry (2 x 64 GB Z-NAND on the PoC; scale down for tests).
	NAND nand.Config
	FTL  ftl.Config
	NVMC nvmc.Config

	// Driver knobs: see nvdc.Config; layout is filled in by NewSystem.
	Driver nvdc.Config

	// CPUCacheBytes attaches a functional CPU cache model of this size to
	// the load/store path (0 = none; timing-only experiments skip it).
	CPUCacheBytes int

	// MechanismEnabled gates the refresh detector + window engine. The
	// ablation with it disabled demonstrates bus collisions (§III-B).
	MechanismEnabled bool

	// TraceCapacity, when positive, attaches a bounded event trace (the
	// logic-analyzer stand-in) to the channel and the NVMC.
	TraceCapacity int

	// Audit, when true (the default from DefaultConfig), attaches the
	// internal/conform protocol auditor to the trace event stream: every
	// bus command, refresh hold, window, data burst and CP exchange is
	// checked against the paper's invariants as it happens, and
	// CheckHealth fails on any violation. Costs one event struct per bus
	// action; disable only for raw-throughput measurements.
	Audit bool

	// StrictADR makes the power-fail sequence drain the WPQ into the DRAM
	// cache BEFORE the firmware flush reads it — the ADR-detection future
	// work of §V-C. The default (false) is PoC-faithful: the two run in
	// parallel and in-flight WPQ stores can lose the race (the "weak
	// persistence domain").
	StrictADR bool

	// IMC holds the host memory-controller knobs.
	IMC imc.Config

	// Seed, when non-zero, master-seeds every component RNG (NAND bad-block
	// placement and media noise, refresh-detector sampling noise) with
	// per-component values derived via sim.SplitSeed, so an entire run
	// replays from this one printed number.
	Seed uint64

	// FaultSeed, when non-zero, attaches a fault-injection registry
	// (internal/fault) seeded with this value to every device model. The
	// assembled registry is exposed as System.Faults; arm rules on it
	// before running the workload. Zero leaves the system fault-free with
	// only nil-check overhead in the models.
	FaultSeed uint64
}

// grade is the channel speed (the PoC is limited to DDR4-1600, §VI).
const grade = ddr4.DDR4_1600

// slotFraction is the share of post-metadata space used as slots (15/16 GB
// on the PoC).
const slotFraction = 0.9375

// DefaultConfig returns a laptop-scale system preserving the PoC's ratios:
// 16 MB DRAM cache standing in for 16 GB, 128 MB of Z-NAND for 128 GB.
func DefaultConfig() Config {
	n := nand.DefaultConfig()
	// 2 ch x 2 dies x 256 blocks x 64 pages x 4 KB = 256 MB raw by default;
	// trim to 128 MB raw for the 1:8 cache:media ratio.
	n.BlocksPerDie = 128
	imcCfg := imc.DefaultConfig()
	return Config{
		TREFI:            ddr4.TREFI,
		TRFC:             1250 * sim.Nanosecond,
		CacheBytes:       16 << 20,
		NAND:             n,
		FTL:              ftl.DefaultConfig(),
		NVMC:             nvmc.DefaultConfig(),
		CPUCacheBytes:    0,
		MechanismEnabled: true,
		Audit:            true,
		IMC:              imcCfg,
	}
}

// FaultedConfig is the member a fault plan runs on: a 1 MiB cache over 32
// blocks per die of 16 pages, so a footprint near capacity forces the
// evictions and re-reads that reach the NAND and CP fault sites (a
// paper-scale member would spend its run on zero-fills). Program failures
// reach the driver (AckAfterProgram), and the auditor, which does not model
// deferred program acks under pipelined load, is off.
func FaultedConfig() Config {
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.NAND.BlocksPerDie = 32
	cfg.NAND.PagesPerBlock = 16
	cfg.NVMC.AckAfterProgram = true
	cfg.Audit = false
	return cfg
}

// System is a fully assembled NVDIMM-C machine.
type System struct {
	K        *sim.Kernel
	Config   Config
	DRAM     *dram.Device
	Channel  *bus.Channel
	IMC      *imc.Controller
	Detector *refdet.Detector
	NAND     *nand.Array
	FTL      *ftl.FTL
	NVMC     *nvmc.Controller
	Driver   *nvdc.Driver
	CPUCache *cpucache.Cache
	Layout   hostmem.Layout
	// Trace is non-nil when Config.TraceCapacity > 0.
	Trace *trace.Log
	// Auditor is non-nil when Config.Audit is set: the always-on protocol
	// invariant checker fed by the trace event stream.
	Auditor *conform.Auditor
	// rec fans trace events out to the ring log, the auditor and any
	// sinks attached via AttachSink.
	rec *trace.Recorder
	// Faults is non-nil when Config.FaultSeed != 0: the seeded registry all
	// device models consult for injected failures.
	Faults *fault.Registry

	lostWPQ int

	// stdTRFC is the DRAM's standard refresh time: a window opens that long
	// after its REF.
	stdTRFC sim.Duration
	// collapseUntil is the target of the latest FastForwardIdle: a REF
	// collapses (collapseRefresh) only when its window opens by then. Once
	// the kernel passes it no grant can qualify, so plain RunUntil always
	// runs the full chain.
	collapseUntil sim.Time

	// FioTarget's op records and transfer buffers (target.go): a free list
	// of fioOp records, the read sink and the read-only zero source.
	opFree []*fioOp
	sink   []byte
	zeros  []byte
}

// LostWPQWrites reports posted stores that lost the §V-C power-fail race
// (zero with StrictADR).
func (s *System) LostWPQWrites() int { return s.lostWPQ }

// NewSystem assembles and boots a system: the BIOS-equivalent setup
// (refresh running, metadata initialized) completes before return.
func NewSystem(cfg Config) (*System, error) {
	k := sim.NewKernel()

	// DRAM-cache DIMM geometry from CacheBytes: 16 banks, 8 KB rows.
	timing := ddr4.NewTiming(grade)
	timing.TRFC = cfg.TRFC
	timing.TREFI = cfg.TREFI
	if err := timing.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	const banks, burstsPerRow = 16, 128
	rowBytes := int64(burstsPerRow * ddr4.BurstBytes)
	rows := cfg.CacheBytes / (int64(banks) * rowBytes)
	if rows < 1 {
		return nil, fmt.Errorf("core: cache %d B too small", cfg.CacheBytes)
	}
	dcfg := dram.Config{
		Timing:       timing,
		Banks:        banks,
		Rows:         int(rows),
		BurstsPerRow: burstsPerRow,
		StandardTRFC: ddr4.Density8Gb.StandardTRFC(),
	}
	dev := dram.New(k, dcfg)

	ch := bus.New(k, dev)

	imcCfg := cfg.IMC
	imcCfg.TREFI = cfg.TREFI
	imcCfg.TRFC = cfg.TRFC
	mc := imc.New(k, ch, imcCfg)

	det := refdet.New(k, timing.TCK)
	det.SetEnabled(cfg.MechanismEnabled)
	ch.AttachSnoop(det.Snoop())

	// One master seed reproduces every probabilistic model: per-component
	// streams are derived, not shared, so adding a draw in one model never
	// perturbs another.
	if cfg.Seed != 0 {
		cfg.NAND.Seed = sim.SplitSeed(cfg.Seed, "nand")
		det.SetSeed(sim.SplitSeed(cfg.Seed, "refdet"))
	}

	arr := nand.New(k, cfg.NAND)
	f := ftl.New(k, arr, cfg.FTL)

	// Region layout over the DRAM cache (region base = DRAM address 0).
	// The metadata area is sized for the worst case slot count (all
	// post-meta space).
	metaBytes := ((dev.Capacity()/PageSize)*4 + 16 + PageSize - 1) &^ (PageSize - 1)
	layout, err := hostmem.NewLayout(dev.Capacity(), metaBytes, slotFraction)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	nc := nvmc.New(k, ch, det, f, layout, cfg.NVMC)
	nc.SetEnabled(cfg.MechanismEnabled)

	var cache *cpucache.Cache
	if cfg.CPUCacheBytes > 0 {
		cache = cpucache.New(dev, cfg.CPUCacheBytes)
	}

	drvCfg := nvdc.DefaultConfig(layout)
	drvCfg.Policy = cfg.Driver.Policy
	drvCfg.TrackDirty = cfg.Driver.TrackDirty
	drvCfg.CombineWBCF = cfg.Driver.CombineWBCF
	drvCfg.UnsafeNoFlush = cfg.Driver.UnsafeNoFlush
	drvCfg.CPQueueDepth = cfg.Driver.CPQueueDepth
	drvCfg.Hypothetical = cfg.Driver.Hypothetical
	drvCfg.TD = cfg.Driver.TD
	if cfg.Driver.TDOverlap != 0 {
		drvCfg.TDOverlap = cfg.Driver.TDOverlap
	}
	// The filesystem's written/unwritten-extent knowledge: a block has media
	// data iff the FTL maps it.
	drvCfg.MediaWritten = f.IsMapped
	drv, err := nvdc.New(k, mc, cache, f.LogicalPages(), drvCfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	s := &System{
		K: k, Config: cfg, DRAM: dev, Channel: ch, IMC: mc,
		Detector: det, NAND: arr, FTL: f, NVMC: nc, Driver: drv,
		CPUCache: cache, Layout: layout, stdTRFC: dcfg.StandardTRFC,
	}
	if cfg.FaultSeed != 0 {
		g := fault.NewRegistry(cfg.FaultSeed)
		arr.SetFaults(g)
		nc.SetFaults(g)
		ch.SetFaults(g)
		det.SetFaults(g)
		s.Faults = g
	}
	// One recorder feeds every observer of channel/NVMC/detector activity.
	rec := &trace.Recorder{}
	s.rec = rec
	if cfg.TraceCapacity > 0 {
		s.Trace = trace.New(cfg.TraceCapacity)
		rec.Attach(s.Trace)
	}
	if cfg.Audit {
		s.Auditor = conform.New(conform.Params{
			TCK:               timing.TCK,
			TREFI:             cfg.TREFI,
			TRFC:              cfg.TRFC,
			StandardTRFC:      dcfg.StandardTRFC,
			WindowGuard:       nvmc.WindowGuard,
			MaxBytesPerWindow: cfg.NVMC.MaxBytesPerWindow,
			Banks:             banks,
		})
		rec.Attach(s.Auditor)
	}
	mc.SetRefreshCollapse(s.collapseRefresh)
	if rec.Active() {
		ch.Trace = rec
		nc.Trace = rec
		det.Trace = rec
	}
	// Boot: let the metadata-initialization write drain before refresh
	// begins (the refresh engine reschedules forever, so a full Run would
	// never return).
	k.Run()
	mc.StartRefresh()
	return s, nil
}

// AttachSink subscribes an additional observer to the trace event stream
// (tests pin golden traces this way). Must be called before the activity of
// interest; events are not replayed.
func (s *System) AttachSink(sink trace.Sink) {
	s.rec.Attach(sink)
	s.Channel.Trace = s.rec
	s.NVMC.Trace = s.rec
	s.Detector.Trace = s.rec
}

// RunFor advances simulated time by d.
func (s *System) RunFor(d sim.Duration) { s.K.RunFor(d) }

// FastForwardIdle advances the system to target exactly like
// s.K.RunUntil(target), but when the member is provably quiescent it warps
// over whole idle refresh cycles instead of executing their events. A
// quiescent member's only activity is the tREFI-cadence refresh chain —
// REF hold, PREA+REF, detection, an extra-tRFC window whose polls all find
// stale CP slots — and every cycle leaves the system in the same state up
// to a handful of counters and timestamps, which the per-component
// Warp* hooks replay in O(1). Observable state (printed stats, DRAM bytes,
// auditor verdicts, future event timing) is byte-identical to the naive
// run; only the kernel's processed-event count diverges.
//
// A busy member — one with other events queued, such as an op's host-CPU
// phase — still runs its refresh events, but while this method advances it
// each REF granted on time collapses at the grant into one event
// (collapseRefresh).
//
// Eligibility is checked conservatively; on any doubt the method falls
// back to plain RunUntil, so it is always safe to call. Because it equals
// RunUntil, and RunUntil composes, one call to a far target equals a call
// to each target on the way: a caller may leave a Quiescent member alone
// for many boundaries and catch it up with one call when it next needs it
// (the pool parks idle members this way).
func (s *System) FastForwardIdle(target sim.Time) {
	s.collapseUntil = target
	// A refresh chain in flight at entry (the boundary landed mid-cycle)
	// blocks the one-pending-event check; drain it the naive way first —
	// its events all land by lastREF+tRFC — then try to warp the rest.
	if s.K.Now() < target && s.K.Pending() > 1 {
		if nr, on := s.IMC.NextRefreshAt(); on {
			tail := nr.Add(-s.Config.TREFI).Add(s.Config.TRFC)
			if tail > target {
				tail = target
			}
			if tail > s.K.Now() {
				s.K.RunUntil(tail)
			}
		}
	}
	if m, polls, rLast, ok := s.warpPlan(target); ok {
		s.applyWarp(m, polls, rLast)
	}
	// When the next refresh chain straddles target, begins it for real —
	// exactly as the naive run would.
	s.K.RunUntil(target)
}

// Quiescent reports whether the member is provably idle: until something
// outside its kernel schedules work on it, its only activity is clean idle
// refresh cycles, so advancing it to any later instant is exactly
// FastForwardIdle to that instant, and no count or state an idle cycle
// leaves unchanged can move meanwhile. It is the target-independent half of
// FastForwardIdle's eligibility:
//
//   - every cycle is clean and of one shape (cleanCycles);
//   - exactly one pending kernel event, and it is the refresh event:
//     nothing else can happen except refresh cycles;
//   - every NVMC slot idle with a stale CP word: the windows are poll-only.
func (s *System) Quiescent() bool {
	_, _, ok := s.quiescent()
	return ok
}

// quiescent is Quiescent plus what a warp needs: the queued refresh instant
// nr and the CP polls each idle window performs.
func (s *System) quiescent() (nr sim.Time, polls int, ok bool) {
	if !s.cleanCycles() {
		return 0, 0, false
	}
	nr, on := s.IMC.NextRefreshAt()
	if !on {
		return 0, 0, false
	}
	next, any := s.K.NextAt()
	if !any || s.K.Pending() != 1 || next != nr {
		return 0, 0, false
	}
	// The NVMC slot probe (CP-word decode) is the expensive check: last.
	polls, ok = s.NVMC.WarpEligible()
	return nr, polls, ok
}

// cleanCycles reports whether every refresh cycle, as long as the NVMC
// stays idle, has the one shape the Warp* credits replay:
//
//   - no fault registry (fault consults mutate RNG and hit counters),
//     no detector sampling noise: each cycle is deterministic and clean;
//   - no trace ring or extra sinks (they would miss the credited events;
//     the auditor is the one sink the credits replay into);
//   - mechanism on, not in self-refresh, and a real extra window
//     programmed: the cycle shape is hold→PREA→REF→detect→window→polls.
func (s *System) cleanCycles() bool {
	if s.Faults != nil || !s.Config.MechanismEnabled {
		return false
	}
	if !s.Detector.Enabled() || s.Detector.BitErrorRate != 0 {
		return false
	}
	if s.Trace != nil {
		return false
	}
	expectSinks := 0
	if s.Auditor != nil {
		expectSinks = 1
	}
	if s.rec.Sinks() != expectSinks {
		return false
	}
	if s.IMC.InSelfRefresh() || s.DRAM.InSelfRefresh() {
		return false
	}
	// Without a usable window the cycle shape differs.
	return s.stdTRFC+nvmc.WindowGuard < s.Config.TRFC
}

// collapseRefresh is the iMC's refresh-collapse hook, offered each REF
// granted at its due instant at. The REF's chain — PREA and REF on the CA
// wires, the detector's decode at at plus at most ten tCK, and the window
// at at+StandardTRFC whose polls find stale CP words — is credited in one
// step through the idle warp's per-component credits, with m = 1, when
// nothing can tell the difference:
//
//   - the chain would end inside the running FastForwardIdle (its window
//     opens by collapseUntil), so no caller sees the member mid-chain;
//   - no other event is queued up to the window's start, so nothing runs
//     between the REF and its window, and what the checks below see at the
//     REF is what the window would find;
//   - cleanCycles holds, and every NVMC slot is idle and ready with a stale
//     CP word (WarpEligible), so the window is poll-only.
//
// The cheap checks come first, and WarpEligible reads CP words only after
// every slot's state passed, so a refusal costs O(1) on a member whose NVMC
// is busy. DESIGN.md §12 ("Busy refresh cycles") argues each skipped
// step unobservable.
func (s *System) collapseRefresh(at sim.Time) bool {
	open := at.Add(s.stdTRFC)
	if open > s.collapseUntil {
		return false
	}
	if next, any := s.K.NextAt(); any && next <= open {
		return false
	}
	if !s.cleanCycles() {
		return false
	}
	polls, ok := s.NVMC.WarpEligible()
	if !ok {
		return false
	}
	s.creditCycles(1, polls, at)
	return true
}

// warpPlan decides whether idle refresh cycles can be warped before target
// and how many: the member must be quiescent, and the first cycle's chain
// (all its events land by REF+tRFC) must complete by target.
func (s *System) warpPlan(target sim.Time) (m uint64, polls int, rLast sim.Time, ok bool) {
	nr, polls, ok := s.quiescent()
	trfc := s.Config.TRFC
	if !ok || nr.Add(trfc) > target {
		return 0, 0, 0, false
	}
	// m whole cycles fit: the m-th REF at nr+(m-1)*tREFI completes its
	// chain by target.
	m = uint64(target.Sub(nr.Add(trfc))/s.Config.TREFI) + 1
	rLast = nr.Add(sim.Duration(m-1) * s.Config.TREFI)
	return m, polls, rLast, true
}

// applyWarp replays the aggregate effect of m idle refresh cycles into
// every component the chain touches. The iMC goes last: it re-times the
// queued refresh event, the kernel's only one, to the advanced cadence.
func (s *System) applyWarp(m uint64, polls int, rLast sim.Time) {
	s.Channel.DataBus.WarpGrants(m, s.Config.TRFC, rLast)
	s.creditCycles(m, polls, rLast)
	s.IMC.WarpIdleRefreshes(m)
}

// creditCycles credits m refresh cycles' PREA and REF, detection and
// poll-only window (polls stale CP polls each), the last REF at rLast, to
// the channel, DRAM, detector, NVMC and auditor. The data-bus hold and the
// iMC's own counters are the caller's: the idle warp credits them too, the
// refresh collapse runs them for real.
func (s *System) creditCycles(m uint64, polls int, rLast sim.Time) {
	s.Channel.WarpIdleRefreshCycles(m, rLast, uint64(polls)*16)
	s.DRAM.WarpIdleRefreshCycles(m, rLast, uint64(polls))
	s.Detector.WarpIdleRefreshCycles(m)
	s.NVMC.WarpIdleWindows(m, rLast)
	if s.Auditor != nil {
		s.Auditor.WarpIdleRefreshCycles(m, rLast, polls)
	}
}

// RunUntil steps until cond() holds, bounded by maxSim time to catch hangs.
func (s *System) RunUntil(cond func() bool, maxSim sim.Duration) error {
	deadline := s.K.Now().Add(maxSim)
	for !cond() {
		if s.K.Now() > deadline {
			return fmt.Errorf("core: condition not met within %v", maxSim)
		}
		if !s.K.Step() {
			return fmt.Errorf("core: kernel drained before condition met")
		}
	}
	return nil
}

// CheckHealth asserts the invariants that must hold after any workload when
// the mechanism is enabled: no bus collisions, no DRAM protocol violations,
// no refresh-detector false positives, consistent FTL state.
func (s *System) CheckHealth() error {
	if n := s.K.NegativeDelays(); n != 0 {
		return fmt.Errorf("core: %d negative-delay Schedule calls clamped (causality bug in a model)", n)
	}
	if n := s.Channel.CollisionCount(); n != 0 {
		return fmt.Errorf("core: %d bus collisions: first: %v", n, s.Channel.Collisions()[0])
	}
	if n := s.DRAM.ViolationCount(); n != 0 {
		return fmt.Errorf("core: %d DRAM protocol violations: first: %v", n, s.DRAM.Violations()[0])
	}
	st := s.Detector.Stats()
	if st.FalsePositives != 0 {
		return fmt.Errorf("core: %d refresh-detector false positives", st.FalsePositives)
	}
	if err := s.FTL.CheckInvariants(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Protocol audit: violations are never acceptable, faults or not — the
	// injected fault set is recoverable by design, so a protocol breach
	// under injection is still a bug in the mechanism.
	if s.Auditor != nil {
		if err := s.Auditor.Err(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	// Fault accounting: without any injected fault the error paths must be
	// silent and the driver healthy; with faults fired, the degradation
	// state must be backed by matching counters.
	ctr := s.Driver.Counters()
	ds := s.Driver.Stats()
	if s.Faults == nil || s.Faults.TotalFired() == 0 {
		if name, v, bad := ctr.NonZero(nvdc.ErrorCounterNames()...); bad {
			return fmt.Errorf("core: error counter %q = %d with no injected faults", name, v)
		}
		if ds.Mode != nvdc.ModeHealthy {
			return fmt.Errorf("core: driver mode %v with no injected faults", ds.Mode)
		}
		if ds.SlotsQuarantined != 0 {
			return fmt.Errorf("core: %d quarantined slots with no injected faults", ds.SlotsQuarantined)
		}
		return nil
	}
	if ds.Mode == nvdc.ModeDegraded && ctr.Get(nvdc.CtrModeDegraded) == 0 {
		return fmt.Errorf("core: driver degraded without a counted transition")
	}
	if ds.Mode == nvdc.ModeReadOnly && ctr.Get(nvdc.CtrModeReadOnly) == 0 {
		return fmt.Errorf("core: driver read-only without a counted transition")
	}
	if got, want := ds.SlotsQuarantined, int(ctr.Get(nvdc.CtrSlotQuarantined)); got != want {
		return fmt.Errorf("core: %d quarantined slots but counter says %d", got, want)
	}
	if ds.Mode == nvdc.ModeHealthy &&
		(ctr.Get(nvdc.CtrCachefillFail) != 0 || ctr.Get(nvdc.CtrWritebackFail) != 0) {
		return fmt.Errorf("core: hard failures counted but driver still healthy")
	}
	return nil
}

// --- Byte-addressable application path -------------------------------------

// Load reads len(buf) bytes at device offset off through the DAX mapping:
// faults make pages resident, then data moves from the DRAM cache. done runs
// when the data is in buf. Any driver failure panics; fault-injection
// workloads use LoadErr.
func (s *System) Load(off int64, buf []byte, done func()) {
	s.access(off, buf, false, mustAccess(done))
}

// Store writes data at device offset off through the DAX mapping. Any driver
// failure panics; fault-injection workloads use StoreErr.
func (s *System) Store(off int64, data []byte, done func()) {
	s.access(off, data, true, mustAccess(done))
}

// LoadErr is Load with driver errors (read-only mode, exhausted retries,
// uncorrectable media) surfaced to done instead of panicking. On error the
// prefix of buf before the failing page may already be filled.
func (s *System) LoadErr(off int64, buf []byte, done func(error)) {
	s.access(off, buf, false, done)
}

// StoreErr is Store with driver errors surfaced to done. On error the pages
// before the failing one have been written (and, in degraded mode, persisted).
func (s *System) StoreErr(off int64, data []byte, done func(error)) {
	s.access(off, data, true, done)
}

func mustAccess(done func()) func(error) {
	return func(err error) {
		if err != nil {
			panic(fmt.Sprintf("core: access: %v", err))
		}
		if done != nil {
			done()
		}
	}
}

func (s *System) access(off int64, buf []byte, write bool, done func(error)) {
	if off < 0 || off+int64(len(buf)) > s.Driver.CapacityPages()*PageSize {
		panic(fmt.Sprintf("core: access [%d,%d) outside device", off, off+int64(len(buf))))
	}
	if done == nil {
		done = func(error) {}
	}
	if len(buf) == 0 {
		done(nil)
		return
	}
	// Split by page, fault each, then move that page's span.
	var step func(pos int)
	step = func(pos int) {
		if pos >= len(buf) {
			done(nil)
			return
		}
		cur := off + int64(pos)
		lpn := cur / PageSize
		pageOff := cur % PageSize
		n := int(PageSize - pageOff)
		if n > len(buf)-pos {
			n = len(buf) - pos
		}
		s.Driver.FaultE(lpn, write, func(slot int, err error) {
			if err != nil {
				done(err)
				return
			}
			addr := s.Layout.SlotAddr(slot) + pageOff
			span := buf[pos : pos+n]
			// In degraded mode every store is written through to the NVM
			// media before it is acknowledged, so the suspect DRAM cache
			// never holds the only copy of acked data.
			next := func() { step(pos + n) }
			if write && s.Driver.Mode() == nvdc.ModeDegraded {
				next = func() {
					s.Driver.FlushLPN(lpn, func(ferr error) {
						if ferr != nil {
							done(ferr)
							return
						}
						step(pos + n)
					})
				}
			}
			if s.CPUCache != nil {
				// Functional movement through the CPU cache; bus time is
				// charged via the iMC below only for the cache misses the
				// model would have had — approximated by charging the span.
				var cerr error
				if write {
					cerr = s.CPUCache.Store(addr, span)
				} else {
					cerr = s.CPUCache.Load(addr, span)
				}
				if cerr != nil {
					panic(fmt.Sprintf("core: cpu cache: %v", cerr))
				}
				s.K.Schedule(0, next)
				return
			}
			if write {
				s.IMC.Write(addr, span, next)
			} else {
				s.IMC.Read(addr, span, next)
			}
		})
	}
	step(0)
}

// PowerFail triggers the §V-C power-loss sequence and returns the number of
// dirty pages flushed to Z-NAND once the battery-backed flush completes.
// Unless Config.StrictADR is set, in-flight WPQ stores race the firmware
// flush and may be lost (LostWPQWrites reports how many were).
func (s *System) PowerFail() (int, error) {
	// The host dies first: no driver code runs past this instant, so pending
	// ack polls and retries must not fire (or count errors) while the
	// battery-backed flush drains below.
	s.Driver.Halt()
	_, lost := s.IMC.ADRFlushRacing(!s.Config.StrictADR)
	s.lostWPQ += lost
	s.IMC.StopRefresh()
	var flushed int
	var ferr error
	doneFlag := false
	s.NVMC.PowerFail(func(n int, err error) {
		flushed, ferr = n, err
		doneFlag = true
	})
	s.K.RunWhile(func() bool { return !doneFlag })
	if ferr != nil {
		return flushed, ferr
	}
	return flushed, nil
}
