// Package nvmc models the NVM controller of the NVDIMM-C board: the FPGA
// logic plus firmware that owns the back-end Z-NAND (through the FTL) and is
// the second master on the shared DDR4 channel. Its defining discipline is
// §III-B: it touches the DRAM cache only inside the extra-tRFC window that
// follows each REFRESH command the refresh detector reports, and it
// communicates with the nvdc driver exclusively through the CP area in DRAM
// (§IV-C) — there is no side channel, exactly as on the real board.
//
// The controller's latency behaviour reproduces the PoC's (§VII-B2):
// firmware decode and DMA setup run on Cortex-A53-class cores between
// windows, NAND reads overlap window waits, and a command needs its poll,
// data and ack phases in (at least) separate windows unless ack-merging is
// enabled.
package nvmc

import (
	"encoding/binary"
	"fmt"

	"nvdimmc/internal/bus"
	"nvdimmc/internal/cp"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/ftl"
	"nvdimmc/internal/hostmem"
	"nvdimmc/internal/refdet"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
)

// PageSize is the transfer granularity (one DRAM cache slot / NAND page).
const PageSize = 4096

// Config parameterizes the controller.
type Config struct {
	// MaxBytesPerWindow bounds data moved per extra-tRFC window (4 KB on
	// the PoC; §VII-C item 3 proposes 8 KB). CP polls and acks are 64 B
	// control reads/writes and ride along without consuming this budget.
	MaxBytesPerWindow int
	// CommandDepth is the number of CP command slots (1 on the PoC;
	// §VII-C item 2 proposes more).
	CommandDepth int
	// AckMergesWithData lets the 64 B ack ride in the same window as the
	// command's 4 KB data transfer instead of a window of its own.
	AckMergesWithData bool
	// AckAfterProgram makes writeback acks wait for the NAND program to
	// finish instead of acking once the data is in the controller's buffer
	// (battery-backed, so posting is safe — the PoC posts).
	AckAfterProgram bool
}

// DefaultConfig mirrors the PoC.
func DefaultConfig() Config {
	return Config{
		MaxBytesPerWindow: PageSize,
		CommandDepth:      1,
		AckMergesWithData: false,
		AckAfterProgram:   false,
	}
}

// The PoC's CPU-controlled FSMs make a writeback+cachefill pair cost ~8.9
// tREFI windows instead of the 6-window theoretical minimum (§VII-B2);
// these decode/setup times reproduce that lag.
const (
	// firmwareDecode is the Cortex-A53 time to decode a polled command and
	// steer the RTL FSMs (the software-controlled data path of §VII-C).
	firmwareDecode = 7 * sim.Microsecond
	// dmaSetup is the per-transfer configuration overhead before the DDR4
	// controller can move data in a window.
	dmaSetup = 2 * sim.Microsecond
)

// WindowGuard is the margin kept at the window end (signal settle).
const WindowGuard = 50 * sim.Nanosecond

// CP area layout with depth: command slot i occupies the cacheline at
// 128*i, its ack the cacheline at 128*i+64. Depth 1 matches cp's constants.
func cmdOffset(i int) int64 { return int64(128 * i) }
func ackOffset(i int) int64 { return int64(128*i + 64) }

type fsmState int

const (
	engIdle fsmState = iota
	engDecoding
	engWaitNAND  // cachefill waiting for FTL read
	engWriteData // cachefill: 4 KB DRAM write pending
	engReadData  // writeback: 4 KB DRAM read pending
	engWaitProg  // writeback waiting for NAND program (AckAfterProgram)
	engAck       // ack write pending
)

// cmdFSM is one command slot's state machine. Every continuation it
// schedules is bound once, in New; the two that must carry more than the
// FSM, a decoded command and a NAND read's page, are records (decoded,
// pageFill) recycled through the controller's free lists. Serving a command
// allocates nothing.
type cmdFSM struct {
	c         *Controller
	idx       int
	state     fsmState
	ready     bool // firmware prep done; may act in a window
	cur       cp.Command
	lastPhase bool
	// fill is the page the latest successful NAND read delivered: the
	// cachefill data. nil until the current command's read is in.
	fill *pageFill
	// For OpCombined: whether the writeback half is done.
	wbDone bool
	// windowsUsed counts windows this command consumed (for stats).
	windowsUsed int
	startedAt   sim.Time

	readyFn, toWriteFn, toReadFn, toAckFn, awaitFn func()
	programmedFn                                   func(error)
}

// decoded is a polled command on its way through the firmware decode; its
// dispatch event carries the command. With AckAfterProgram the FSM can be
// acked early and polled again before that event fires (see doReadData),
// so the command cannot wait on the FSM itself.
type decoded struct {
	f          *cmdFSM
	cmd        cp.Command
	dispatchFn func()
}

// pageFill is one NAND read into a controller page. While the read is in
// flight it owns the page; once it succeeds the page becomes its FSM's
// fill until a later read replaces it or the ack clears it, and the record
// then returns to the controller's free list. Reads never share a page, so
// a read still in flight (see decoded) cannot overwrite the page a window
// is about to move.
type pageFill struct {
	f                    *cmdFSM
	page                 []byte
	filledFn, combinedFn func(error)
}

// Stats aggregates controller behaviour.
type Stats struct {
	WindowsSeen        uint64 // extra-tRFC windows entered
	WindowsUsed        uint64 // windows in which any work was done
	Polls              uint64
	Cachefills         uint64
	Writebacks         uint64
	Combined           uint64
	BytesToDRAM        uint64
	BytesFromDRAM      uint64
	AcksPosted         uint64
	AcksDropped        uint64  // injected: ack never reached DRAM
	AcksCorrupted      uint64  // injected: ack posted with a flipped bit
	FirmwareStalls     uint64  // injected: decode stalled past its budget
	WindowOverruns     uint64  // injected: data phase aborted, window lost
	PostedProgramFails uint64  // posted writeback whose program failed late
	WindowsPerCmd      float64 // rolling average
	cmdWindowsTotal    uint64
	cmdsCompleted      uint64
}

// Controller is the NVMC.
type Controller struct {
	k      *sim.Kernel
	ch     *bus.Channel
	det    *refdet.Detector
	ftl    *ftl.FTL
	layout hostmem.Layout
	cfg    Config

	windowStart, windowEnd sim.Time
	windowRefAt            sim.Time // bus time of the REF that opened the window
	// winOpen and winClose place a window after its REF:
	// [REF+winOpen, REF+winClose), from the DRAM's standard and programmed
	// tRFC.
	winOpen, winClose sim.Duration
	// runWindowFn and postedFn are runWindow and posted, bound once.
	runWindowFn func()
	postedFn    func(error)
	// word and xfer are scratch for CP control words and writeback pages:
	// each use is done with them before it returns (ftl.WritePage copies).
	word [16]byte
	xfer []byte
	// Free lists of the decoded and pageFill records.
	decodeFree []*decoded
	fillFree   []*pageFill

	fsms []*cmdFSM
	rr   int

	stats Stats

	// enabled gates the window engine (the mechanism-off ablation drives
	// accesses without windows to demonstrate collisions).
	enabled bool

	// faults, when non-nil, injects controller-level failures: firmware
	// stalls (NVMCFirmwareStall), aborted window transfers
	// (NVMCWindowOverrun), and CP ack loss/corruption (CPAckDrop,
	// CPAckCorrupt). All are recoverable by the driver's retry protocol:
	// the command slot's FSM bookkeeping always completes, so a re-issued
	// command with a toggled phase bit is seen as new and re-executed.
	faults *fault.Registry

	// Trace, when attached to sinks, publishes window and CP activity.
	Trace *trace.Recorder
}

// New wires a controller to the channel, detector and FTL. The detector's
// OnRefresh callback is claimed by the controller.
func New(k *sim.Kernel, ch *bus.Channel, det *refdet.Detector, f *ftl.FTL, layout hostmem.Layout, cfg Config) *Controller {
	if cfg.MaxBytesPerWindow < PageSize {
		panic("nvmc: window budget below one page")
	}
	if cfg.CommandDepth < 1 {
		cfg.CommandDepth = 1
	}
	dcfg := ch.Device().Config()
	c := &Controller{
		k: k, ch: ch, det: det, ftl: f, layout: layout, cfg: cfg,
		enabled: true, xfer: make([]byte, PageSize),
		winOpen: dcfg.StandardTRFC, winClose: dcfg.Timing.TRFC - WindowGuard,
	}
	for i := 0; i < cfg.CommandDepth; i++ {
		f := &cmdFSM{c: c, idx: i, state: engIdle, ready: true}
		f.readyFn = func() { f.ready = true }
		f.toWriteFn = func() { f.enter(engWriteData) }
		f.toReadFn = func() { f.enter(engReadData) }
		f.toAckFn = func() { f.enter(engAck) }
		f.awaitFn = f.awaitNAND
		f.programmedFn = f.programmed
		c.fsms = append(c.fsms, f)
	}
	c.runWindowFn = c.runWindow
	c.postedFn = c.posted
	det.OnRefresh = c.onRefresh
	return c
}

// Stats returns a copy of the counters with the rolling average resolved.
func (c *Controller) Stats() Stats {
	s := c.stats
	if s.cmdsCompleted > 0 {
		s.WindowsPerCmd = float64(s.cmdWindowsTotal) / float64(s.cmdsCompleted)
	}
	return s
}

// SetEnabled gates the window engine.
func (c *Controller) SetEnabled(v bool) { c.enabled = v }

// SetFaults attaches the fault-injection registry (nil detaches).
func (c *Controller) SetFaults(g *fault.Registry) { c.faults = g }

// onRefresh is the refresh detector callback: it fires shortly after a REF
// was seen on the CA bus; the usable window opens once the DRAM's internal
// (standard-tRFC) refresh completes and closes at the programmed tRFC.
func (c *Controller) onRefresh(refAt sim.Time) {
	if !c.enabled {
		return
	}
	start, end := refAt.Add(c.winOpen), refAt.Add(c.winClose)
	if end <= start {
		return // no extra window programmed: mechanism cannot run
	}
	c.windowStart, c.windowEnd = start, end
	c.windowRefAt = refAt
	if start <= c.k.Now() {
		c.runWindow()
		return
	}
	c.k.ScheduleAt(start, c.runWindowFn)
}

// runWindow performs this window's work: at most MaxBytesPerWindow of data
// plus any pending 64 B control reads/writes.
func (c *Controller) runWindow() {
	now := c.k.Now()
	if now < c.windowStart || now >= c.windowEnd {
		return // stale schedule (e.g. disabled in between)
	}
	c.stats.WindowsSeen++
	if c.Trace.Active() {
		c.Trace.Record(trace.Event{
			At: now, Kind: trace.KindWindow,
			End: c.windowEnd, RefAt: c.windowRefAt,
		})
	}
	worked := false
	budget := c.cfg.MaxBytesPerWindow

	// Data actions first, round-robin across command slots for fairness.
	n := len(c.fsms)
	for i := 0; i < n && budget >= PageSize; i++ {
		f := c.fsms[(c.rr+i)%n]
		if !f.ready {
			continue
		}
		switch f.state {
		case engWriteData:
			c.doWriteData(f)
			budget -= PageSize
			worked = true
		case engReadData:
			c.doReadData(f)
			budget -= PageSize
			worked = true
		}
	}
	c.rr = (c.rr + 1) % n

	// Control actions: acks then polls (64 B each; do not consume budget).
	for _, f := range c.fsms {
		if f.ready && f.state == engAck {
			c.postAck(f)
			worked = true
		}
	}
	for _, f := range c.fsms {
		if f.ready && f.state == engIdle {
			c.pollSlot(f)
			worked = true
		}
	}
	if worked {
		c.stats.WindowsUsed++
	}
}

// pollSlot reads command slot f.idx from the CP area and hands it to the
// firmware for decoding.
func (c *Controller) pollSlot(f *cmdFSM) {
	c.stats.Polls++
	word := c.word[:]
	if err := c.ch.NVMCAccess(c.cpAddr(cmdOffset(f.idx)), word, true); err != nil {
		panic(fmt.Sprintf("nvmc: CP poll: %v", err))
	}
	w := binary.LittleEndian.Uint64(word[0:8])
	sec := binary.LittleEndian.Uint64(word[8:16])
	cmd := cp.Decode(w, sec)
	if cmd.Phase == f.lastPhase || cmd.Opcode == cp.OpNone {
		return // stale or empty slot
	}
	if c.Trace.Active() {
		c.Trace.Record(trace.Event{
			At: c.k.Now(), Kind: trace.KindCPCommand,
			Slot: f.idx, Word: w, Word2: sec,
		})
	}
	// New command: the firmware decodes it after the window, on its core.
	f.state = engDecoding
	f.ready = false
	f.windowsUsed = 1
	f.startedAt = c.k.Now()
	decode := firmwareDecode
	if ok, stallUS := c.faults.FiresParam(fault.NVMCFirmwareStall); ok {
		// Firmware hangs on its core for the injected duration (param is
		// microseconds; default ~2 ms) before the decode completes. The
		// command is eventually served, so a patient driver sees only
		// latency; an impatient one times out and retries.
		if stallUS <= 0 {
			stallUS = 2000
		}
		decode += sim.Duration(stallUS) * sim.Microsecond
		c.stats.FirmwareStalls++
	}
	var d *decoded
	if n := len(c.decodeFree); n > 0 {
		d = c.decodeFree[n-1]
		c.decodeFree = c.decodeFree[:n-1]
	} else {
		d = &decoded{}
		d.dispatchFn = d.dispatch
	}
	d.f, d.cmd = f, cmd
	c.k.Schedule(sim.Duration(c.windowEnd.Sub(c.k.Now()))+decode, d.dispatchFn)
}

// dispatch hands the decoded command to its FSM and returns the record.
func (d *decoded) dispatch() {
	f, cmd := d.f, d.cmd
	d.f = nil
	f.c.decodeFree = append(f.c.decodeFree, d)
	f.dispatch(cmd)
}

// enter moves the FSM to state s, ready to act in the next window.
func (f *cmdFSM) enter(s fsmState) {
	f.state = s
	f.ready = true
}

// dispatch steers a decoded command into its pipeline.
func (f *cmdFSM) dispatch(cmd cp.Command) {
	c := f.c
	f.cur = cmd
	switch cmd.Opcode {
	case cp.OpCachefill:
		c.stats.Cachefills++
		f.state = engWaitNAND
		p := c.newFill(f)
		c.ftl.ReadPageInto(int64(cmd.NANDPage), p.page, p.filledFn)
	case cp.OpWriteback:
		c.stats.Writebacks++
		// DMA setup for the DRAM read; data moves in the next window.
		c.k.Schedule(dmaSetup, f.toReadFn)
	case cp.OpCombined:
		c.stats.Combined++
		f.wbDone = false
		// Start the NAND read for the cachefill half immediately; the
		// writeback half's DRAM read is set up in parallel.
		p := c.newFill(f)
		c.ftl.ReadPageInto(int64(cmd.NANDPage), p.page, p.combinedFn)
		c.k.Schedule(dmaSetup, f.toReadFn) // writeback half first
	case cp.OpFlushAll:
		c.k.Schedule(firmwareDecode, func() {
			c.flushAll(f.toAckFn)
		})
	default:
		c.fail(f, fmt.Errorf("nvmc: unknown opcode %v", cmd.Opcode))
	}
}

// newFill returns a pageFill for a NAND read on behalf of f.
func (c *Controller) newFill(f *cmdFSM) *pageFill {
	var p *pageFill
	if n := len(c.fillFree); n > 0 {
		p = c.fillFree[n-1]
		c.fillFree = c.fillFree[:n-1]
	} else {
		p = &pageFill{page: make([]byte, PageSize)}
		p.filledFn = p.filled
		p.combinedFn = p.combined
	}
	p.f = f
	return p
}

// release returns p to the controller's free list.
func (p *pageFill) release() {
	c := p.f.c
	p.f = nil
	c.fillFree = append(c.fillFree, p)
}

// deliver makes p its FSM's fill, or drops it on a read error, which
// fails the command.
func (p *pageFill) deliver(err error) bool {
	f := p.f
	if err != nil {
		p.release()
		f.c.fail(f, err)
		return false
	}
	if f.fill != nil {
		f.fill.release()
	}
	f.fill = p
	return true
}

// filled completes a cachefill's NAND read: DMA setup, then the next window
// may move the data.
func (p *pageFill) filled(err error) {
	f := p.f
	if p.deliver(err) {
		f.c.k.Schedule(dmaSetup, f.toWriteFn)
	}
}

// combined completes the cachefill half's NAND read of a combined command;
// the writeback half's completion picks the page up.
func (p *pageFill) combined(err error) { p.deliver(err) }

func (c *Controller) fail(f *cmdFSM, err error) {
	// Post an error ack so the driver does not spin forever.
	f.state = engAck
	f.ready = true
	f.cur.Opcode = cp.OpNone // marks error in postAck
}

// doWriteData moves the 4 KB buffer into the DRAM cache slot (cachefill data
// phase).
func (c *Controller) doWriteData(f *cmdFSM) {
	f.windowsUsed++
	if c.faults.Fires(fault.NVMCWindowOverrun) {
		// The FSM ran out of window mid-transfer and aborted; the state is
		// untouched so the next window retries the whole 4 KB move.
		c.stats.WindowOverruns++
		return
	}
	slot := f.cur.DRAMSlot
	addr := c.layout.SlotAddr(int(slot))
	var buf []byte
	if f.fill != nil {
		buf = f.fill.page
	}
	if err := c.ch.NVMCAccess(addr, buf, false); err != nil {
		panic(fmt.Sprintf("nvmc: cachefill DMA: %v", err))
	}
	c.stats.BytesToDRAM += uint64(len(buf))
	if c.cfg.AckMergesWithData {
		c.postAck(f)
		return
	}
	// Ack in a later window, after firmware status update.
	f.ready = false
	c.k.Schedule(sim.Duration(c.windowEnd.Sub(c.k.Now()))+firmwareDecode/2, f.toAckFn)
}

// doReadData moves the 4 KB slot out of DRAM (writeback data phase) and
// hands it to the FTL.
func (c *Controller) doReadData(f *cmdFSM) {
	f.windowsUsed++
	if c.faults.Fires(fault.NVMCWindowOverrun) {
		c.stats.WindowOverruns++
		return
	}
	cmd := f.cur
	slot, page := cmd.DRAMSlot, cmd.NANDPage
	if cmd.Opcode == cp.OpCombined {
		slot, page = cmd.DRAMSlot2, cmd.NANDPage2
	}
	buf := c.xfer
	if err := c.ch.NVMCAccess(c.layout.SlotAddr(int(slot)), buf, true); err != nil {
		panic(fmt.Sprintf("nvmc: writeback DMA: %v", err))
	}
	c.stats.BytesFromDRAM += uint64(len(buf))

	if c.cfg.AckAfterProgram && cmd.Opcode == cp.OpWriteback {
		// The FSM stays ready in engReadData until a program completes, so
		// each window until then moves the slot and programs it again, and
		// each completion schedules an ack: a command can be acked several
		// times, and later acks land on later commands. The faultpool
		// campaign's output depends on this behaviour as it stands.
		c.ftl.WritePage(int64(page), buf, f.programmedFn)
		return
	}
	// Posted program: the controller's battery-backed buffer holds the data;
	// the program completes asynchronously. The ack has (or will have) been
	// posted by then, so a late failure cannot use the slot FSM — it is
	// only counted. The FTL's internal remap-and-rewrite makes this path
	// fire only after every remap attempt is exhausted.
	c.ftl.WritePage(int64(page), buf, c.postedFn)
	if cmd.Opcode == cp.OpCombined {
		f.combinedWritebackDone()
		return
	}
	f.writebackDone()
}

// posted observes a posted writeback's program completion.
func (c *Controller) posted(err error) {
	if err != nil {
		c.stats.PostedProgramFails++
	}
}

// programmed completes an AckAfterProgram writeback's NAND program. The ack
// is not posted yet, so a failure surfaces to the driver.
func (f *cmdFSM) programmed(err error) {
	if err != nil {
		f.c.fail(f, err)
		return
	}
	f.writebackDone()
}

// combinedWritebackDone advances a combined command once its writeback half
// is off the DRAM: the cachefill half proceeds when the NAND read has the
// page ready.
func (f *cmdFSM) combinedWritebackDone() {
	f.wbDone = true
	f.ready = false
	f.state = engWaitNAND
	f.c.k.Schedule(dmaSetup, f.awaitFn)
}

// writebackDone advances the FSM once a writeback's data is off the DRAM
// (and, with AckAfterProgram, programmed).
func (f *cmdFSM) writebackDone() {
	c := f.c
	if c.cfg.AckMergesWithData {
		c.postAck(f)
		return
	}
	f.ready = false
	// With AckAfterProgram, this runs from the program-completion
	// callback, which can land long after the refresh window this
	// command started in; the window wait is then already over.
	wait := sim.Duration(c.windowEnd.Sub(c.k.Now()))
	if wait < 0 {
		wait = 0
	}
	c.k.Schedule(wait+firmwareDecode/2, f.toAckFn)
}

// awaitNAND runs a DMA setup after a combined command's writeback half and
// polls (on the firmware core) until the cachefill half's NAND read is in;
// cheap busy-wait at firmware granularity.
func (f *cmdFSM) awaitNAND() {
	if f.fill != nil {
		f.enter(engWriteData)
		return
	}
	f.c.k.Schedule(dmaSetup, f.awaitFn)
}

// postAck writes the ack word for f's command and recycles the slot.
func (c *Controller) postAck(f *cmdFSM) {
	status := cp.StatusDone
	if f.cur.Opcode == cp.OpNone {
		status = cp.StatusError
	}
	ack := cp.Ack{Phase: f.cur.Phase, Status: status}
	w := ack.EncodeAck()
	dropped := false
	if c.faults.Fires(fault.CPAckDrop) {
		// The 64 B ack write is lost in flight: the FSM completes its
		// bookkeeping (the firmware believes it acked) but the driver never
		// sees the word and must time out and re-issue.
		dropped = true
		c.stats.AcksDropped++
	} else if c.faults.Fires(fault.CPAckCorrupt) {
		// Flip one bit of the stored checksum byte: the ack still parses
		// (phase and status intact) but AckChecksumOK rejects it, so the
		// driver's deadline-and-reissue path must recover.
		w ^= 1 << uint(8+c.faults.Rand().Intn(8))
		c.stats.AcksCorrupted++
	}
	if !dropped {
		word := c.word[:8]
		binary.LittleEndian.PutUint64(word, w)
		if err := c.ch.NVMCAccess(c.cpAddr(ackOffset(f.idx)), word, false); err != nil {
			panic(fmt.Sprintf("nvmc: ack write: %v", err))
		}
	}
	if c.Trace.Active() {
		c.Trace.Record(trace.Event{
			At: c.k.Now(), Kind: trace.KindCPAck,
			Slot: f.idx, Word: w, Word2: uint64(f.cur.Opcode),
			Windows: f.windowsUsed, Dropped: dropped,
		})
	}
	c.stats.AcksPosted++
	c.stats.cmdWindowsTotal += uint64(f.windowsUsed)
	c.stats.cmdsCompleted++
	f.lastPhase = f.cur.Phase
	f.state = engIdle
	f.ready = false
	if f.fill != nil {
		f.fill.release()
		f.fill = nil
	}
	f.wbDone = false
	// The firmware needs a moment before it polls again; by the next window
	// it is ready.
	c.k.Schedule(firmwareDecode/2, f.readyFn)
}

// cpAddr converts a CP-area offset to a DRAM address.
func (c *Controller) cpAddr(off int64) int64 { return c.layout.CPOffset + off }

// WarpEligible reports whether the controller is in the quiescent
// steady-state an idle-warp may skip over: window engine on, no fault
// registry (fault consults burn RNG/hit-counter state), every command slot
// idle and ready to poll, and every slot's CP word stale — so each warped
// window would have been an empty poll-only window. polls is the number of
// CP polls such a window performs (one per slot). Every slot's state is
// checked before any CP word is read, so a busy controller refuses in
// O(slots) without touching the DRAM. The CP words are read through the
// DRAM's side-effect-free Peek so eligibility probing does not perturb
// device counters.
func (c *Controller) WarpEligible() (polls int, ok bool) {
	if !c.enabled || c.faults != nil {
		return 0, false
	}
	for _, f := range c.fsms {
		if !f.ready || f.state != engIdle {
			return 0, false
		}
	}
	for _, f := range c.fsms {
		var word [16]byte
		if err := c.ch.Device().Peek(c.cpAddr(cmdOffset(f.idx)), word[:]); err != nil {
			return 0, false
		}
		cmd := cp.Decode(binary.LittleEndian.Uint64(word[0:8]), binary.LittleEndian.Uint64(word[8:16]))
		if cmd.Phase != f.lastPhase && cmd.Opcode != cp.OpNone {
			return 0, false // live command queued: the next window has real work
		}
	}
	return len(c.fsms), true
}

// WarpIdleWindows credits m poll-only extra-tRFC windows without running
// them, the last opened by a REF at rLast. Each window saw all slots idle,
// polled each once (stale words), and counted as used — exactly what
// runWindow does in the quiescent state WarpEligible verifies. Round-robin
// position advances one step per window as runWindow would.
func (c *Controller) WarpIdleWindows(m uint64, rLast sim.Time) {
	if m == 0 || !c.enabled {
		return
	}
	n := len(c.fsms)
	c.stats.WindowsSeen += m
	c.stats.WindowsUsed += m
	c.stats.Polls += m * uint64(n)
	c.windowStart, c.windowEnd = rLast.Add(c.winOpen), rLast.Add(c.winClose)
	c.windowRefAt = rLast
	c.rr = (c.rr + int(m%uint64(n))) % n
}

// flushAll persists every valid dirty slot per the metadata table; used for
// orderly shutdown through the CP opcode. The power-fail path is PowerFail.
func (c *Controller) flushAll(done func()) {
	c.flushFromMetadata(false, func(int, error) { done() })
}

// PowerFail runs the §V-C power-loss sequence: the firmware reads the
// DRAM-to-NAND mappings from the metadata area — ignoring the tRFC
// serialization rule, the host is dead — and stores every valid dirty slot
// into Z-NAND on battery power. done receives the number of pages flushed.
func (c *Controller) PowerFail(done func(flushed int, err error)) {
	c.enabled = false
	c.flushFromMetadata(true, done)
}

func (c *Controller) flushFromMetadata(bypassWindows bool, done func(int, error)) {
	meta := make([]byte, c.layout.MetaSize)
	// Direct device read: on power fail the serialization rule is void.
	if err := c.ch.Device().CopyOut(c.layout.MetaOffset, meta); err != nil {
		done(0, err)
		return
	}
	entries, err := cp.DecodeMeta(meta)
	if err != nil {
		done(0, fmt.Errorf("nvmc: metadata unreadable on power fail: %w", err))
		return
	}
	type flushItem struct {
		slot int
		page uint32
	}
	var todo []flushItem
	for slot, e := range entries {
		if e.Valid && e.Dirty {
			todo = append(todo, flushItem{slot: slot, page: e.NANDPage})
		}
	}
	flushed := 0
	var step func(i int)
	step = func(i int) {
		if i >= len(todo) {
			done(flushed, nil)
			return
		}
		e := todo[i]
		buf := make([]byte, PageSize)
		if err := c.ch.Device().CopyOut(c.layout.SlotAddr(e.slot), buf); err != nil {
			done(flushed, err)
			return
		}
		c.ftl.WritePage(int64(e.page), buf, func(err error) {
			if err != nil {
				done(flushed, err)
				return
			}
			flushed++
			step(i + 1)
		})
	}
	step(0)
}
