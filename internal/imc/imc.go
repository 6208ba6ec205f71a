// Package imc models the host's integrated memory controller: the component
// NVDIMM-C deliberately does NOT modify. It issues PREA+REF on a strict
// tREFI cadence (the hook the NVMC's whole access mechanism hangs on), holds
// the data bus for the *programmed* tRFC after each REF, performs host reads
// and writes as serialized data-bus transactions, and models the write
// pending queue (WPQ) that delimits the platform persistence domain (§V-C).
//
// tREFI and tRFC are programmable, mirroring the Skylake MMIO configuration
// registers the paper uses to stretch tRFC to 1.25 us and to double or
// quadruple the refresh rate (Figs. 12/13).
package imc

import (
	"fmt"

	"nvdimmc/internal/bus"
	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
)

// Config parameterizes the controller.
type Config struct {
	// TREFI is the average refresh interval (default 7.8 us).
	TREFI sim.Duration
	// TRFC is the programmed refresh cycle time the controller keeps the
	// bus quiet for after REF. The PoC programs 1.25 us (§IV-A).
	TRFC sim.Duration
}

// DefaultConfig mirrors the PoC configuration from Table I.
func DefaultConfig() Config {
	return Config{
		TREFI: ddr4.TREFI,
		TRFC:  1250 * sim.Nanosecond,
	}
}

// wpqWrite is one posted write: its WPQ entry and the buffer that owns its
// bytes until the bus transaction lands them in the DRAM array. Records and
// their buffers are recycled through the controller's free list when that
// transaction completes (never at an ADR flush: the bus grant still reads the
// buffer after one). drainedFn is bound once, when the record is first made.
type wpqWrite struct {
	c         *Controller
	addr      int64
	data      []byte
	done      func()
	drainedFn func()
}

// Controller is the host iMC for one memory channel.
type Controller struct {
	k   *sim.Kernel
	ch  *bus.Channel
	cfg Config

	refreshEnabled bool
	refreshes      uint64
	nextRefresh    sim.Time
	refFree        []*refreshEvent

	wpq     []*wpqWrite
	wpqFree []*wpqWrite
	// wpqDrained counts entries that reached the DRAM.
	wpqDrained uint64
	// adrFlushes counts power-fail flushes.
	adrFlushes uint64

	reads, writes uint64
	readBytes     uint64
	writeBytes    uint64

	// selfRefresh tracks the power-state the controller put the DIMM in.
	selfRefresh bool
	// postponed counts refreshes granted more than tREFI late (JEDEC allows
	// postponing up to 8).
	postponed uint64

	// collapse, when set, is offered every REF granted at its due instant
	// (SetRefreshCollapse).
	collapse func(at sim.Time) bool
}

// New wires a controller to the channel. Call StartRefresh to begin the
// refresh cadence (BIOS hands the machine over with refresh running).
func New(k *sim.Kernel, ch *bus.Channel, cfg Config) *Controller {
	if cfg.TREFI <= 0 || cfg.TRFC <= 0 {
		panic("imc: refresh timing must be positive")
	}
	if cfg.TRFC >= cfg.TREFI {
		panic(fmt.Sprintf("imc: tRFC %v >= tREFI %v", cfg.TRFC, cfg.TREFI))
	}
	return &Controller{k: k, ch: ch, cfg: cfg}
}

// Refreshes returns the number of REF commands issued.
func (c *Controller) Refreshes() uint64 { return c.refreshes }

// StartRefresh begins the periodic refresh engine. The first REF is issued
// one tREFI from now.
func (c *Controller) StartRefresh() {
	if c.refreshEnabled {
		return
	}
	c.refreshEnabled = true
	c.nextRefresh = c.k.Now().Add(c.cfg.TREFI)
	c.scheduleRefresh()
}

// StopRefresh halts the refresh engine (used by teardown and by the
// NVMC-frontend strawman experiments).
func (c *Controller) StopRefresh() { c.refreshEnabled = false }

// SetRefreshCollapse installs fn as the refresh-collapse hook (nil removes
// it). fn is offered each REF granted at its due instant, at the grant,
// before PREA+REF are driven. When it returns true it has credited the
// cycle's PREA, REF and everything they set off, and the controller issues
// neither command; the data-bus hold stays a real grant either way. The
// controller knows nothing of what follows a REF on the channel: the
// hook's owner decides when nothing can observe the difference.
func (c *Controller) SetRefreshCollapse(fn func(at sim.Time) bool) { c.collapse = fn }

// refreshEvent is one scheduled REF: the kernel event at its due instant
// and the data-bus grant that issues it. due is the instant it was due.
// Records recycle through the controller's free list once the grant has
// run, or as soon as the event finds refresh stopped; fireFn and grantFn are
// bound once, when the record is first made.
type refreshEvent struct {
	c       *Controller
	due     sim.Time
	fireFn  func()
	grantFn func(sim.Time)
}

func (c *Controller) scheduleRefresh() {
	if !c.refreshEnabled {
		return
	}
	var r *refreshEvent
	if n := len(c.refFree); n > 0 {
		r = c.refFree[n-1]
		c.refFree = c.refFree[:n-1]
	} else {
		r = &refreshEvent{c: c}
		r.fireFn = r.fire
		r.grantFn = r.grant
	}
	c.k.ScheduleAt(c.nextRefresh, r.fireFn)
}

// fire runs at the REF's due instant: it queues the bus grant and schedules
// the next REF. With refresh stopped it returns its record and does nothing
// else.
func (r *refreshEvent) fire() {
	c := r.c
	if !c.refreshEnabled {
		c.refFree = append(c.refFree, r)
		return
	}
	// Hold the data bus for the full programmed tRFC: no host command
	// can be issued during the refresh cycle (§II-B). The hold also
	// covers the extra window the NVMC uses.
	r.due = c.nextRefresh
	c.ch.DataBus.Acquire(c.cfg.TRFC, r.grantFn)
	// Fixed cadence: the next REF is due tREFI after this one was due,
	// regardless of queueing delay, so the average interval holds.
	c.nextRefresh = c.nextRefresh.Add(c.cfg.TREFI)
	c.scheduleRefresh()
}

// grant issues PREA+REF at the start of the refresh hold, then returns the
// record.
func (r *refreshEvent) grant(start sim.Time) {
	c := r.c
	due := r.due
	c.refFree = append(c.refFree, r)
	if c.selfRefresh {
		return // the DIMM refreshes itself
	}
	if start.Sub(due) > c.cfg.TREFI {
		c.postponed++
	}
	if start == due && c.collapse != nil && c.collapse(start) {
		c.refreshes++
		return
	}
	if c.ch.Trace.Active() {
		c.ch.Trace.Record(trace.Event{
			At: start, Kind: trace.KindRefreshHold,
			End: start.Add(c.cfg.TRFC),
		})
	}
	// DDR4 has no per-bank refresh: precharge all banks first
	// (§III-B), then issue REF.
	c.ch.Issue(bus.HostIMC, ddr4.Command{Kind: ddr4.CmdPrechargeAll})
	c.ch.Issue(bus.HostIMC, ddr4.Command{Kind: ddr4.CmdRefresh})
	c.refreshes++
}

// NextRefreshAt reports when the next REF is due and whether the refresh
// engine is running. Idle-warp schedulers use it to identify the one
// pending kernel event on a quiescent member as the refresh event.
func (c *Controller) NextRefreshAt() (sim.Time, bool) {
	return c.nextRefresh, c.refreshEnabled
}

// InSelfRefresh reports whether the controller has put the DIMM into
// self-refresh.
func (c *Controller) InSelfRefresh() bool { return c.selfRefresh }

// WarpIdleRefreshes credits m uncontended refresh cycles without running
// their events: counters and the cadence advance exactly as if each REF
// had been granted at its due instant on an otherwise idle channel (so
// none count as postponed). The queued refresh event is re-timed to the new
// cadence position under a fresh sequence number. It must be the kernel's
// only pending event, due at the next REF (core.System proves that before
// every warp); anything else panics.
func (c *Controller) WarpIdleRefreshes(m uint64) {
	if m == 0 || !c.refreshEnabled {
		return
	}
	due := c.nextRefresh
	next := due.Add(sim.Duration(m) * c.cfg.TREFI)
	if at, ok := c.k.NextAt(); !ok || at != due || !c.k.RetimeLone(next) {
		panic(fmt.Sprintf("imc: idle warp with %d pending events, want only the REF due at %v", c.k.Pending(), due))
	}
	c.refreshes += m
	c.nextRefresh = next
}

// rowSwitchesPer4K approximates how many row activations a random 4 KB
// transfer incurs (the 4 KB may straddle a row boundary and the row is
// rarely already open under random traffic).
const rowSwitchesPer4K = 1

func (c *Controller) rowSwitches(n int) int {
	// Scale the per-4K estimate by transfer size, minimum one.
	s := (n*rowSwitchesPer4K + 4095) / 4096
	if s < 1 {
		s = 1
	}
	return s
}

// Read fetches len(buf) bytes at addr from the DRAM behind the channel.
// done runs when the data has fully crossed the bus.
func (c *Controller) Read(addr int64, buf []byte, done func()) {
	c.ReadRS(addr, buf, c.rowSwitches(len(buf)), done)
}

// ReadRS is Read with an explicit row-switch charge (chunked op models
// charge the row overhead once per op, not per chunk).
func (c *Controller) ReadRS(addr int64, buf []byte, rowSwitches int, done func()) {
	c.reads++
	c.readBytes += uint64(len(buf))
	c.ch.HostRead(addr, buf, rowSwitches, done)
}

// Write stores data at addr. The write enters the WPQ immediately (the CPU
// considers it posted) and drains to DRAM when the bus transaction is
// granted. done runs when the data is in the DRAM array.
func (c *Controller) Write(addr int64, data []byte, done func()) {
	c.WriteRS(addr, data, c.rowSwitches(len(data)), done)
}

// WriteRS is Write with an explicit row-switch charge. The data is copied
// once, into the WPQ entry's buffer, which the bus transaction then owns;
// the caller may reuse data as soon as WriteRS returns.
func (c *Controller) WriteRS(addr int64, data []byte, rowSwitches int, done func()) {
	c.writes++
	c.writeBytes += uint64(len(data))
	var w *wpqWrite
	if n := len(c.wpqFree); n > 0 {
		w = c.wpqFree[n-1]
		c.wpqFree = c.wpqFree[:n-1]
	} else {
		w = &wpqWrite{c: c}
		w.drainedFn = w.drained
	}
	if cap(w.data) < len(data) {
		w.data = make([]byte, len(data))
	}
	w.data = w.data[:len(data)]
	copy(w.data, data)
	w.addr, w.done = addr, done
	c.wpq = append(c.wpq, w)
	c.ch.HostWrite(addr, w.data, rowSwitches, w.drainedFn)
}

// drained runs when the write's bus transaction completes: the entry leaves
// the WPQ (unless an ADR flush already emptied it), the record and its buffer
// return to the free list, then the caller's done runs.
func (w *wpqWrite) drained() {
	c := w.c
	for i, e := range c.wpq {
		if e == w {
			copy(c.wpq[i:], c.wpq[i+1:])
			c.wpq[len(c.wpq)-1] = nil
			c.wpq = c.wpq[:len(c.wpq)-1]
			c.wpqDrained++
			break
		}
	}
	done := w.done
	w.done = nil
	c.wpqFree = append(c.wpqFree, w)
	if done != nil {
		done()
	}
}

// WPQDepth reports posted writes not yet in the DRAM array.
func (c *Controller) WPQDepth() int { return len(c.wpq) }

// ADRFlushRacing models the §V-C caveat: on the PoC, the platform's WPQ
// drain and the FPGA's metadata-driven flush run in PARALLEL, so some WPQ
// stores may reach the DRAM cache only after the FPGA has already read the
// corresponding page — those writes are lost ("the precise persistence
// domain scales down to the DRAM cache, while the WPQ becomes a weak
// persistence domain"). With race=true, every other entry loses the race
// (a deterministic stand-in for the timing-dependent overlap); with
// race=false the drain wins everywhere (the ADR-detection future work).
func (c *Controller) ADRFlushRacing(race bool) (flushed, lost int) {
	for i, e := range c.wpq {
		if race && i%2 == 1 {
			lost++
			continue
		}
		// Direct copy: the ADR domain is powered just long enough for this.
		if err := c.ch.Device().CopyIn(e.addr, e.data); err != nil {
			panic(fmt.Sprintf("imc: ADR flush: %v", err))
		}
		flushed++
	}
	clear(c.wpq)
	c.wpq = c.wpq[:0]
	c.adrFlushes++
	return flushed, lost
}

// Stats reports operation counters.
func (c *Controller) Stats() (reads, writes, readBytes, writeBytes uint64) {
	return c.reads, c.writes, c.readBytes, c.writeBytes
}

// PostponedRefreshes reports refreshes granted more than one tREFI late.
func (c *Controller) PostponedRefreshes() uint64 { return c.postponed }

// EnterSelfRefresh puts the DIMM into self-refresh (idle power state): the
// controller precharges all banks, issues SRE, and stops issuing REF. In
// this state the NVMC gets no windows — the §IV-A decode distinction between
// REF and SRE is what keeps it off the bus.
func (c *Controller) EnterSelfRefresh() {
	if c.selfRefresh {
		return
	}
	c.selfRefresh = true
	c.ch.DataBus.Acquire(c.cfg.TRFC, func(sim.Time) {
		c.ch.Issue(bus.HostIMC, ddr4.Command{Kind: ddr4.CmdPrechargeAll})
		c.ch.Issue(bus.HostIMC, ddr4.Command{Kind: ddr4.CmdSelfRefreshEntry})
	})
}

// ExitSelfRefresh wakes the DIMM (SRX) and resumes normal refresh.
func (c *Controller) ExitSelfRefresh() {
	if !c.selfRefresh {
		return
	}
	c.ch.DataBus.Acquire(c.cfg.TRFC, func(sim.Time) {
		c.ch.Issue(bus.HostIMC, ddr4.Command{Kind: ddr4.CmdSelfRefreshExit})
		c.selfRefresh = false
	})
}
