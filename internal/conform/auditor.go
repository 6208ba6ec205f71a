// Package conform is the protocol-conformance layer: an always-on invariant
// auditor that subscribes to the trace event stream and checks, event by
// event, the safety rules the paper states in prose — the software
// equivalent of the always-on assertion layers METICULOUS and EasyDRAM ship
// with their FPGA timing emulators. The auditor is pure observation: it
// holds no pointers into the system, costs no per-event formatting, and
// never mutates what it watches, so it can stay attached in every
// experiment and test run.
//
// Audited invariants (see DESIGN.md §8 for the full citation table):
//
//	time          simulated time is monotonic across the event stream
//	exclusivity   NVMC touches the shared DRAM only inside the extra-tRFC
//	              window; host bursts and commands stay out of it (§III-B)
//	prea-ref      every REF is immediately preceded by PREA with all banks
//	              closed, at the head of a bus hold (§III-B, JEDEC)
//	trefi         consecutive REFs are never further apart than the JEDEC
//	              postponement budget allows, except in self-refresh (§II-B)
//	window        window geometry matches the programmed timings:
//	              [REF+tRFC(standard), REF+tRFC(programmed)-guard) (§IV-A),
//	              and data per window respects the budget (§VII-C)
//	cp            CP commands and acks strictly alternate per slot with
//	              matching phase — no lost or duplicated acks (§IV-C)
//	detector      every refresh detection corresponds to a REF that was
//	              actually on the bus, within the RTL's latency bound (§IV-A)
package conform

import (
	"fmt"

	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
)

// Params fixes the timing contract the auditor checks against. Zero fields
// disable the corresponding checks (e.g. TREFI=0 disables the refresh-gap
// budget), so partial wiring stays usable in unit tests.
type Params struct {
	// TCK is the channel clock period (detector latency bound).
	TCK sim.Duration
	// TREFI is the programmed average refresh interval.
	TREFI sim.Duration
	// TRFC is the programmed (extended) refresh cycle time.
	TRFC sim.Duration
	// StandardTRFC is the DRAM's internal refresh duration; the window
	// opens when it ends.
	StandardTRFC sim.Duration
	// WindowGuard is the margin the NVMC keeps at the window end.
	WindowGuard sim.Duration
	// MaxBytesPerWindow bounds NVMC data moved per window (0 = unchecked).
	MaxBytesPerWindow int
	// MaxPostponed is how many refreshes JEDEC lets the iMC postpone
	// (default 8): the retention proxy allows (MaxPostponed+1)*TREFI
	// between REFs.
	MaxPostponed int
	// Banks is the number of banks tracked for the all-banks-closed rule.
	Banks int
	// Limit caps retained violations (the count is never capped).
	Limit int
}

// Violation is one observed protocol breach.
type Violation struct {
	At   sim.Time
	Rule string // stable rule identifier (see package comment)
	Desc string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v [%s] %s", v.At, v.Rule, v.Desc)
}

type window struct {
	at, end sim.Time
	refAt   sim.Time
	bytes   int
	valid   bool
}

type hold struct {
	at, end sim.Time
	valid   bool
}

type cpSlot struct {
	open  bool // command accepted, ack outstanding
	phase bool
}

// Auditor is a trace.Sink that checks the protocol invariants. Create with
// New and attach to the system's trace Recorder.
type Auditor struct {
	p Params

	events     uint64
	violations []Violation
	count      uint64

	lastAt sim.Time

	// Refresh-cadence state.
	lastRefAt   sim.Time
	seenRef     bool
	selfRefresh bool

	// PREA-before-REF state.
	lastCmdKind  ddr4.CommandKind
	lastCmdAt    sim.Time
	lastCmdValid bool
	bankOpen     []bool

	// Bus-occupancy state.
	curWindow   window
	curHold     hold
	lastHostEnd sim.Time

	// CP mailbox state.
	slots map[int]*cpSlot

	// Drop bookkeeping: injected ack drops observed (not violations — the
	// driver's deadline/re-issue protocol recovers them; the fuzzer and
	// CheckHealth can still cross-check the count against fault stats).
	DroppedAcks uint64
}

// New returns an auditor for the given timing contract.
func New(p Params) *Auditor {
	if p.MaxPostponed <= 0 {
		p.MaxPostponed = 8
	}
	if p.Limit <= 0 {
		p.Limit = 64
	}
	if p.Banks <= 0 {
		p.Banks = 16
	}
	return &Auditor{
		p:        p,
		bankOpen: make([]bool, p.Banks),
		slots:    make(map[int]*cpSlot),
	}
}

// Events reports how many events the auditor has checked.
func (a *Auditor) Events() uint64 { return a.events }

// ViolationCount reports all violations observed (beyond the retained cap).
func (a *Auditor) ViolationCount() uint64 { return a.count }

// Violations returns the retained violations (up to Params.Limit).
func (a *Auditor) Violations() []Violation { return a.violations }

// Err returns nil if no violation was observed, else an error naming the
// first one and the total count.
func (a *Auditor) Err() error {
	if a.count == 0 {
		return nil
	}
	return fmt.Errorf("conform: %d protocol violation(s); first: %v",
		a.count, a.violations[0])
}

// WarpIdleRefreshCycles advances the auditor over m clean idle refresh
// cycles, the last REF landing at rLast, each cycle carrying polls stale CP
// polls in its window. The event stream such a cycle produces — refresh
// hold, PREA, REF, detection, window, polls×NVMC data — is replayed as pure
// state updates with zero violations; the caller (the idle-warp scheduler)
// owns the proof that each cycle was protocol-clean, which holds exactly
// when the member was quiescent: the gap between warped REFs is one tREFI
// (within any postponement budget), PREA precedes REF with all banks
// already closed, the window geometry is the programmed one, and stale
// polls move only sub-page control bytes.
func (a *Auditor) WarpIdleRefreshCycles(m uint64, rLast sim.Time, polls int) {
	if m == 0 {
		return
	}
	a.events += m * uint64(5+polls)
	a.lastAt = rLast.Add(a.p.StandardTRFC)
	a.lastRefAt = rLast
	a.seenRef = true
	a.lastCmdKind = ddr4.CmdRefresh
	a.lastCmdAt = rLast
	a.lastCmdValid = true
	for i := range a.bankOpen {
		a.bankOpen[i] = false
	}
	a.curHold = hold{at: rLast, end: rLast.Add(a.p.TRFC), valid: true}
	a.curWindow = window{
		at:    rLast.Add(a.p.StandardTRFC),
		end:   rLast.Add(a.p.TRFC).Add(-a.p.WindowGuard),
		refAt: rLast,
		valid: true,
	}
}

func (a *Auditor) violate(at sim.Time, rule, format string, args ...interface{}) {
	a.count++
	if len(a.violations) < a.p.Limit {
		a.violations = append(a.violations, Violation{
			At: at, Rule: rule, Desc: fmt.Sprintf(format, args...),
		})
	}
}

func (a *Auditor) inHold(t sim.Time) bool {
	return a.curHold.valid && t >= a.curHold.at && t < a.curHold.end
}

func (a *Auditor) inWindow(t sim.Time) bool {
	return a.curWindow.valid && t >= a.curWindow.at && t < a.curWindow.end
}

// Record implements trace.Sink.
func (a *Auditor) Record(e *trace.Event) {
	a.events++
	if e.At < a.lastAt {
		a.violate(e.At, "time", "event %v at %v precedes previous event at %v",
			e.Kind, e.At, a.lastAt)
	}
	a.lastAt = e.At

	switch e.Kind {
	case trace.KindCommand, trace.KindRefresh:
		a.command(e)
	case trace.KindRefreshHold:
		a.refreshHold(e)
	case trace.KindRefDetect:
		a.refDetect(e)
	case trace.KindWindow:
		a.window(e)
	case trace.KindNVMCData:
		a.nvmcData(e)
	case trace.KindHostData:
		a.hostData(e)
	case trace.KindCPCommand:
		a.cpCommand(e)
	case trace.KindCPAck:
		a.cpAck(e)
	}
}

// quietKinds may appear on the CA bus during a refresh hold: the hold's own
// PREA+REF pair, self-refresh transitions, and no-ops.
func quietKind(k ddr4.CommandKind) bool {
	switch k {
	case ddr4.CmdDeselect, ddr4.CmdNOP, ddr4.CmdPrechargeAll,
		ddr4.CmdRefresh, ddr4.CmdSelfRefreshEntry, ddr4.CmdSelfRefreshExit:
		return true
	}
	return false
}

func (a *Auditor) command(e *trace.Event) {
	cmd := e.Cmd

	// Exclusivity, NVMC side: any real NVMC command outside the window is
	// a latent conflict — the iMC issues commands unpredictably (§III-B).
	if e.Master == trace.MasterNVMC &&
		cmd.Kind != ddr4.CmdDeselect && cmd.Kind != ddr4.CmdNOP && !a.inWindow(e.At) {
		a.violate(e.At, "exclusivity", "NVMC command %v outside the extra-tRFC window", cmd)
	}
	// Exclusivity, host side: during a refresh hold the host may only
	// produce the hold's own PREA+REF (or SRE/SRX when transitioning).
	if e.Master == trace.MasterHost && a.inHold(e.At) && !quietKind(cmd.Kind) {
		a.violate(e.At, "exclusivity", "host command %v inside the refresh hold", cmd)
	}

	// Bank open/close tracking for the all-banks-precharged rule.
	switch cmd.Kind {
	case ddr4.CmdActivate:
		if cmd.Bank >= 0 && cmd.Bank < len(a.bankOpen) {
			a.bankOpen[cmd.Bank] = true
		}
	case ddr4.CmdRead, ddr4.CmdWrite:
		if cmd.AutoPrecharge && cmd.Bank >= 0 && cmd.Bank < len(a.bankOpen) {
			a.bankOpen[cmd.Bank] = false
		}
	case ddr4.CmdPrecharge:
		if cmd.Bank >= 0 && cmd.Bank < len(a.bankOpen) {
			a.bankOpen[cmd.Bank] = false
		}
	case ddr4.CmdPrechargeAll:
		for i := range a.bankOpen {
			a.bankOpen[i] = false
		}
	case ddr4.CmdRefresh:
		// PREA-before-REF: the iMC precharges all banks immediately before
		// REF (§III-B); DDR4 has no per-bank refresh.
		if !a.lastCmdValid || a.lastCmdKind != ddr4.CmdPrechargeAll || a.lastCmdAt != e.At {
			a.violate(e.At, "prea-ref", "REF not immediately preceded by PREA")
		}
		for b, open := range a.bankOpen {
			if open {
				a.violate(e.At, "prea-ref", "REF with bank %d open", b)
			}
		}
		// REF belongs at the head of a refresh hold.
		if !a.curHold.valid || a.curHold.at != e.At {
			a.violate(e.At, "prea-ref", "REF outside a refresh-hold head (hold at %v)", a.curHold.at)
		}
		// tREFI budget: the retention proxy. JEDEC allows postponing up to
		// MaxPostponed refreshes, so the worst legal gap is (n+1)*tREFI.
		if a.seenRef && !a.selfRefresh && a.p.TREFI > 0 {
			budget := sim.Duration(a.p.MaxPostponed+1) * a.p.TREFI
			if gap := e.At.Sub(a.lastRefAt); gap > budget {
				a.violate(e.At, "trefi", "refresh gap %v exceeds budget %v", gap, budget)
			}
		}
		a.lastRefAt = e.At
		a.seenRef = true
	case ddr4.CmdSelfRefreshEntry:
		for b, open := range a.bankOpen {
			if open {
				a.violate(e.At, "prea-ref", "SRE with bank %d open", b)
			}
		}
		a.selfRefresh = true
	case ddr4.CmdSelfRefreshExit:
		// The DIMM refreshed itself while in self-refresh: restart the
		// cadence clock from the exit.
		a.selfRefresh = false
		a.lastRefAt = e.At
	}

	a.lastCmdKind = cmd.Kind
	a.lastCmdAt = e.At
	a.lastCmdValid = true
}

func (a *Auditor) refreshHold(e *trace.Event) {
	if a.lastHostEnd > e.At {
		a.violate(e.At, "exclusivity", "host burst (until %v) still in flight at refresh-hold start", a.lastHostEnd)
	}
	a.curHold = hold{at: e.At, end: e.End, valid: true}
}

func (a *Auditor) refDetect(e *trace.Event) {
	// Detector truthfulness: the claimed REF time must be the REF most
	// recently on the bus. A false positive (detection with no matching
	// REF) is the system-fatal failure mode of §IV-A.
	if !a.seenRef || e.RefAt != a.lastRefAt {
		a.violate(e.At, "detector", "detection claims REF@%v but last REF was %v", e.RefAt, a.lastRefAt)
	}
	// RTL latency bound: one deserializer frame plus the decode pipeline.
	if a.p.TCK > 0 {
		bound := sim.Duration(10) * a.p.TCK // 8 frame bits + 2 pipeline clocks
		if lat := e.At.Sub(e.RefAt); lat < 0 || lat > bound {
			a.violate(e.At, "detector", "detection latency %v outside (0, %v]", lat, bound)
		}
	}
}

func (a *Auditor) window(e *trace.Event) {
	w := window{at: e.At, end: e.End, refAt: e.RefAt, valid: true}
	if !a.seenRef || w.refAt != a.lastRefAt {
		a.violate(e.At, "window", "window for REF@%v but last REF was %v", w.refAt, a.lastRefAt)
	}
	if a.p.StandardTRFC > 0 && w.at != w.refAt.Add(a.p.StandardTRFC) {
		a.violate(e.At, "window", "window opens at %v, want REF+standard tRFC = %v",
			w.at, w.refAt.Add(a.p.StandardTRFC))
	}
	if a.p.TRFC > 0 {
		wantEnd := w.refAt.Add(a.p.TRFC).Add(-a.p.WindowGuard)
		if w.end != wantEnd {
			a.violate(e.At, "window", "window closes at %v, want REF+tRFC-guard = %v", w.end, wantEnd)
		}
	}
	if a.curHold.valid && (w.at < a.curHold.at || w.end > a.curHold.end) {
		a.violate(e.At, "window", "window [%v,%v) escapes the refresh hold [%v,%v)",
			w.at, w.end, a.curHold.at, a.curHold.end)
	}
	a.curWindow = w
}

func (a *Auditor) nvmcData(e *trace.Event) {
	if !a.inWindow(e.At) {
		a.violate(e.At, "exclusivity", "NVMC data transfer (%dB @%#x) outside the extra-tRFC window",
			e.Bytes, e.Addr)
		return
	}
	// Budget accounting counts page-sized data; 64 B-class CP control
	// reads/writes ride along for free (§VII-C item 3).
	if a.p.MaxBytesPerWindow > 0 && e.Bytes >= 4096 {
		a.curWindow.bytes += e.Bytes
		if a.curWindow.bytes > a.p.MaxBytesPerWindow {
			a.violate(e.At, "window", "window moved %dB of data, budget %dB",
				a.curWindow.bytes, a.p.MaxBytesPerWindow)
		}
	}
}

func (a *Auditor) hostData(e *trace.Event) {
	if a.inWindow(e.At) {
		a.violate(e.At, "exclusivity", "host burst (%dB @%#x) inside the extra-tRFC window",
			e.Bytes, e.Addr)
	}
	if a.inHold(e.At) {
		a.violate(e.At, "exclusivity", "host burst (%dB @%#x) inside the refresh hold",
			e.Bytes, e.Addr)
	}
	if e.End > a.lastHostEnd {
		a.lastHostEnd = e.End
	}
}

func (a *Auditor) slot(i int) *cpSlot {
	s, ok := a.slots[i]
	if !ok {
		s = &cpSlot{}
		a.slots[i] = s
	}
	return s
}

func (a *Auditor) cpCommand(e *trace.Event) {
	if !a.inWindow(e.At) {
		a.violate(e.At, "exclusivity", "CP command poll for slot %d outside the window", e.Slot)
	}
	s := a.slot(e.Slot)
	if s.open {
		a.violate(e.At, "cp", "slot %d accepted a command with an ack still outstanding", e.Slot)
	}
	s.open = true
	s.phase = e.Word&1 != 0
}

func (a *Auditor) cpAck(e *trace.Event) {
	if !a.inWindow(e.At) {
		a.violate(e.At, "exclusivity", "CP ack for slot %d outside the window", e.Slot)
	}
	s := a.slot(e.Slot)
	if !s.open {
		a.violate(e.At, "cp", "slot %d acked with no command outstanding (duplicated ack)", e.Slot)
	}
	if ackPhase := e.Word&1 != 0; ackPhase != s.phase {
		a.violate(e.At, "cp", "slot %d ack phase %v does not match command phase %v",
			e.Slot, ackPhase, s.phase)
	}
	s.open = false
	if e.Dropped {
		a.DroppedAcks++
	}
}
