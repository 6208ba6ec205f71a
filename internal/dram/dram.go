// Package dram models a DDR4 DRAM rank: per-bank row state machines, the
// refresh cycle, protocol legality checking and real data storage.
//
// The model serves two levels of fidelity:
//
//   - Command level: Apply executes one decoded DDR4 command, advancing the
//     bank state machines and recording protocol violations exactly where a
//     real device would glitch or corrupt (commands during refresh, CAS to a
//     closed row, ACT to an open bank, ...). The bus-conflict experiments and
//     the refresh-detector aging test run at this level.
//
//   - Transfer level: CopyIn/CopyOut move bytes to/from the backing store
//     with no timing; the callers (iMC and NVMC models) account for bus
//     occupancy themselves. Transfer-level access still enforces the refresh
//     window rules through InRefresh/InExtraWindow.
//
// Data is stored sparsely in 4 KB pages so a simulated 16 GB DIMM costs only
// the pages that have held nonzero data.
package dram

import (
	"bytes"
	"fmt"

	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/sim"
)

// PageSize is the data-store page granularity (also the NVDIMM-C cacheline).
const PageSize = 4096

// BankState is a bank's row-buffer state.
type BankState int

// Bank states.
const (
	BankIdle BankState = iota
	BankActive
)

type bank struct {
	state   BankState
	openRow int
	lastACT sim.Time
	lastPRE sim.Time
	readyAt sim.Time // earliest instant a CAS command is legal
}

// Violation records a protocol violation the device observed. Real silicon
// would corrupt data or lock up; the model records and (optionally) poisons
// the affected location so higher-level validation catches it.
type Violation struct {
	At   sim.Time
	Cmd  ddr4.Command
	Desc string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v: %v: %s", v.At, v.Cmd, v.Desc)
}

// Config sizes a Device.
type Config struct {
	Timing ddr4.Timing
	// Banks is the number of banks (DDR4 x8: 16 in 4 bank groups).
	Banks int
	// Rows per bank.
	Rows int
	// Columns per row counted in 64-byte bursts.
	BurstsPerRow int
	// StandardTRFC is the time the device actually needs to complete a
	// refresh (350 ns for 8 Gb); the *programmed* tRFC in Timing.TRFC may be
	// longer — that surplus is the NVMC's access window.
	StandardTRFC sim.Duration
}

// DefaultConfig returns an 8 Gb-component rank at the given grade: 16 banks,
// 64Ki rows... scaled down by default to keep tests light. Capacity is
// Banks*Rows*BurstsPerRow*64 bytes.
func DefaultConfig(g ddr4.SpeedGrade) Config {
	return Config{
		Timing:       ddr4.NewTiming(g),
		Banks:        16,
		Rows:         1 << 15,
		BurstsPerRow: 128, // 8 KB rows
		StandardTRFC: ddr4.Density8Gb.StandardTRFC(),
	}
}

// Device is one DRAM rank.
type Device struct {
	k    *sim.Kernel
	cfg  Config
	bank []bank
	// prechargedAt, while prechargePending, is the latest precharge-all a
	// warp credited and the banks have not taken yet: settle applies it
	// before anything reads them, so a warp costs O(1), not O(banks).
	prechargedAt     sim.Time
	prechargePending bool

	// Refresh state.
	refreshStart sim.Time
	refreshBusy  bool // true during [refreshStart, refreshStart+StandardTRFC)
	refreshRow   int  // internal refresh address counter (§II-B)
	refreshCount uint64

	// Self-refresh: the device refreshes itself with CKE low; every command
	// except SRX is illegal until exit.
	selfRefresh bool

	pages map[int64]*[PageSize]byte

	violations []Violation
	// ViolationLimit caps recorded violations to bound memory in adversarial
	// tests; further violations are counted but not stored.
	ViolationLimit  int
	violationsTotal uint64

	reads, writes uint64
}

// New returns an idle device with all banks precharged.
func New(k *sim.Kernel, cfg Config) *Device {
	if cfg.Banks <= 0 || cfg.Rows <= 0 || cfg.BurstsPerRow <= 0 {
		panic("dram: invalid geometry")
	}
	d := &Device{
		k:              k,
		cfg:            cfg,
		bank:           make([]bank, cfg.Banks),
		pages:          make(map[int64]*[PageSize]byte),
		ViolationLimit: 1024,
	}
	// Banks come out of initialization precharged in the distant past so
	// that tRP checks do not fire on the first ACTIVATE.
	farPast := sim.Time(-1 << 50)
	for i := range d.bank {
		d.bank[i].lastPRE = farPast
		d.bank[i].lastACT = farPast
	}
	return d
}

// Capacity returns the device capacity in bytes.
func (d *Device) Capacity() int64 {
	return int64(d.cfg.Banks) * int64(d.cfg.Rows) * int64(d.cfg.BurstsPerRow) * ddr4.BurstBytes
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Violations returns the recorded protocol violations.
func (d *Device) Violations() []Violation { return d.violations }

// ViolationCount returns the total violations observed (including any beyond
// the recording cap).
func (d *Device) ViolationCount() uint64 { return d.violationsTotal }

// RefreshCount returns the number of REF commands executed.
func (d *Device) RefreshCount() uint64 { return d.refreshCount }

// Stats returns the read and write burst counts.
func (d *Device) Stats() (reads, writes uint64) { return d.reads, d.writes }

func (d *Device) violate(cmd ddr4.Command, format string, args ...interface{}) {
	d.violationsTotal++
	if len(d.violations) < d.ViolationLimit {
		d.violations = append(d.violations, Violation{
			At:   d.k.Now(),
			Cmd:  cmd,
			Desc: fmt.Sprintf(format, args...),
		})
	}
}

// InRefresh reports whether the device is internally busy refreshing (the
// standard-tRFC portion). No access of any kind is legal during this time.
func (d *Device) InRefresh() bool {
	return d.refreshBusy && d.k.Now() < d.refreshStart.Add(d.cfg.StandardTRFC)
}

// InExtraWindow reports whether now falls in the NVMC's access window: after
// the device finished its internal refresh but before the host's programmed
// tRFC expires (so the host iMC is still holding off).
func (d *Device) InExtraWindow() bool {
	if !d.refreshBusy {
		return false
	}
	now := d.k.Now()
	return now >= d.refreshStart.Add(d.cfg.StandardTRFC) &&
		now < d.refreshStart.Add(d.cfg.Timing.TRFC)
}

// Apply executes one command at the current simulation instant, enforcing
// the protocol rules relevant to the NVDIMM-C mechanism.
func (d *Device) Apply(cmd ddr4.Command) {
	d.settle()
	now := d.k.Now()
	t := d.cfg.Timing

	// Rule: in self-refresh only SRX (and deselect/NOP) is legal.
	if d.selfRefresh {
		switch cmd.Kind {
		case ddr4.CmdSelfRefreshExit:
			d.selfRefresh = false
		case ddr4.CmdDeselect, ddr4.CmdNOP:
		default:
			d.violate(cmd, "command during self-refresh")
		}
		return
	}
	// Rule: during the device's internal refresh no command is valid
	// (§II-B: "any request to DRAM cannot be valid during the refresh").
	if d.InRefresh() && cmd.Kind != ddr4.CmdDeselect && cmd.Kind != ddr4.CmdNOP {
		d.violate(cmd, "command during internal refresh (refresh started %v)", d.refreshStart)
		return
	}
	if d.refreshBusy && now >= d.refreshStart.Add(t.TRFC) {
		d.refreshBusy = false
	}

	switch cmd.Kind {
	case ddr4.CmdDeselect, ddr4.CmdNOP:
		return

	case ddr4.CmdActivate:
		b := d.checkBank(cmd)
		if b == nil {
			return
		}
		if b.state == BankActive {
			d.violate(cmd, "ACT to bank with open row %d", b.openRow)
			return
		}
		if cmd.Row < 0 || cmd.Row >= d.cfg.Rows {
			d.violate(cmd, "row %d out of range", cmd.Row)
			return
		}
		if now < b.lastPRE.Add(t.TRP) {
			d.violate(cmd, "tRP violation: ACT %v after PRE (need %v)", now.Sub(b.lastPRE), t.TRP)
		}
		b.state = BankActive
		b.openRow = cmd.Row
		b.lastACT = now
		b.readyAt = now.Add(t.TRCD)

	case ddr4.CmdRead, ddr4.CmdWrite:
		b := d.checkBank(cmd)
		if b == nil {
			return
		}
		if b.state != BankActive {
			d.violate(cmd, "CAS to precharged bank")
			return
		}
		if now < b.readyAt {
			d.violate(cmd, "tRCD violation: CAS %v after ACT (need %v)", now.Sub(b.lastACT), t.TRCD)
		}
		if cmd.Col < 0 || cmd.Col >= d.cfg.BurstsPerRow {
			d.violate(cmd, "column %d out of range", cmd.Col)
			return
		}
		if cmd.Kind == ddr4.CmdRead {
			d.reads++
		} else {
			d.writes++
		}
		if cmd.AutoPrecharge {
			b.state = BankIdle
			b.lastPRE = now.Add(t.TRTP)
		}

	case ddr4.CmdPrecharge:
		b := d.checkBank(cmd)
		if b == nil {
			return
		}
		if b.state == BankActive && now < b.lastACT.Add(t.TRAS) {
			d.violate(cmd, "tRAS violation: PRE %v after ACT (need %v)", now.Sub(b.lastACT), t.TRAS)
		}
		b.state = BankIdle
		b.lastPRE = now

	case ddr4.CmdPrechargeAll:
		for i := range d.bank {
			b := &d.bank[i]
			if b.state == BankActive && now < b.lastACT.Add(t.TRAS) {
				d.violate(cmd, "tRAS violation on bank %d during PREA", i)
			}
			b.state = BankIdle
			b.lastPRE = now
		}

	case ddr4.CmdRefresh:
		// JEDEC: all banks must be precharged before REF (§III-B: DDR4 has
		// no per-bank refresh, controllers issue PREA first).
		for i := range d.bank {
			if d.bank[i].state == BankActive {
				d.violate(cmd, "REF with bank %d open", i)
				d.bank[i].state = BankIdle
			}
		}
		d.refreshBusy = true
		d.refreshStart = now
		d.refreshCount++
		d.refreshRow = (d.refreshRow + 1) % d.cfg.Rows

	case ddr4.CmdSelfRefreshEntry:
		// All banks must be precharged; the device then refreshes itself.
		for i := range d.bank {
			if d.bank[i].state == BankActive {
				d.violate(cmd, "SRE with bank %d open", i)
				d.bank[i].state = BankIdle
			}
		}
		d.selfRefresh = true

	case ddr4.CmdSelfRefreshExit:
		d.violate(cmd, "SRX while not in self-refresh")

	case ddr4.CmdZQCal, ddr4.CmdMRS:
		// Accepted; no state modeled beyond legality of timing (not needed
		// by the experiments).
	}
}

// WarpIdleRefreshCycles credits m idle PREA+REF cycles without applying
// the commands, the last REF landing at rLast: banks end precharged at
// rLast, the refresh engine ends mid-cycle at rLast (refreshBusy, as a
// real REF leaves it until the next command's lazy clear), the internal
// refresh address advances m rows, and pollBursts read bursts per cycle
// (the NVMC's window polls) are counted. The caller owns the proof that
// the warped cycles were violation-free: banks already precharged, no
// competing traffic.
func (d *Device) WarpIdleRefreshCycles(m uint64, rLast sim.Time, pollBursts uint64) {
	if m == 0 {
		return
	}
	d.prechargedAt, d.prechargePending = rLast, true
	d.refreshBusy = true
	d.refreshStart = rLast
	d.refreshCount += m
	// refreshRow+m mod Rows, with no division when m < Rows.
	step := m
	if rows := uint64(d.cfg.Rows); step >= rows {
		step %= rows
	}
	d.refreshRow += int(step)
	if d.refreshRow >= d.cfg.Rows {
		d.refreshRow -= d.cfg.Rows
	}
	d.reads += m * pollBursts
}

// Peek copies bytes out of the backing store with no access accounting and
// no protocol checks — a diagnostic read the simulated machine never sees.
// The idle-warp eligibility check uses it to decode CP slots without
// perturbing the burst counters.
func (d *Device) Peek(addr int64, buf []byte) error {
	if addr < 0 || addr+int64(len(buf)) > d.Capacity() {
		return fmt.Errorf("dram: peek [%d,%d) outside capacity %d", addr, addr+int64(len(buf)), d.Capacity())
	}
	d.copyOut(addr, buf)
	return nil
}

func (d *Device) checkBank(cmd ddr4.Command) *bank {
	if cmd.Bank < 0 || cmd.Bank >= d.cfg.Banks {
		d.violate(cmd, "bank %d out of range", cmd.Bank)
		return nil
	}
	return &d.bank[cmd.Bank]
}

// InSelfRefresh reports whether the device is in self-refresh.
func (d *Device) InSelfRefresh() bool { return d.selfRefresh }

// BankState returns the state and open row of bank i.
func (d *Device) BankState(i int) (BankState, int) {
	d.settle()
	return d.bank[i].state, d.bank[i].openRow
}

// settle precharges every bank at the instant a warp credited last, if the
// banks have not taken it yet.
func (d *Device) settle() {
	if !d.prechargePending {
		return
	}
	d.prechargePending = false
	for i := range d.bank {
		d.bank[i].state = BankIdle
		d.bank[i].lastPRE = d.prechargedAt
	}
}

// AddrToBRC inverts the burst address mapping: the (bank, row, column)
// coordinates whose burst covers flat byte address addr. Used by the
// command-level host path to drive real ACT/RD/WR/PRE sequences.
func (d *Device) AddrToBRC(addr int64) (bank, row, col int) {
	burst := addr / ddr4.BurstBytes
	col = int(burst % int64(d.cfg.BurstsPerRow))
	t := burst / int64(d.cfg.BurstsPerRow)
	bank = int(t % int64(d.cfg.Banks))
	row = int(t / int64(d.cfg.Banks))
	return
}

// --- Transfer-level data access -----------------------------------------

// copyIn stores data at addr. A page is materialised only when a nonzero
// byte lands in it: an untouched page already reads as zeros, so writing
// zeros there is a no-op (the same dedup NAND applies to programmed pages).
// A touched page is always overwritten.
func (d *Device) copyIn(addr int64, data []byte) {
	for len(data) > 0 {
		pn, off := addr/PageSize, int(addr%PageSize)
		n := min(PageSize-off, len(data))
		p := d.pages[pn]
		if p == nil && !AllZero(data[:n]) {
			p = new([PageSize]byte)
			d.pages[pn] = p
		}
		if p != nil {
			copy(p[off:], data[:n])
		}
		data = data[n:]
		addr += int64(n)
	}
}

// copyOut reads len(buf) bytes at addr; untouched pages read as zeros
// without being materialised.
func (d *Device) copyOut(addr int64, buf []byte) {
	for len(buf) > 0 {
		pn, off := addr/PageSize, int(addr%PageSize)
		n := min(PageSize-off, len(buf))
		if p := d.pages[pn]; p != nil {
			copy(buf[:n], p[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += int64(n)
	}
}

// zeroPage is AllZero's comparand. Nothing writes to it.
var zeroPage [PageSize]byte

// AllZero reports whether every byte of p is zero, comparing it a page at a
// time against a zero page with bytes.Equal (the runtime's vectorised
// memequal). It is the one zero-page check of the memory models: the DRAM
// store skips zero writes to untouched pages, and NAND dedups all-zero
// programs.
func AllZero(p []byte) bool {
	for len(p) > PageSize {
		if !bytes.Equal(p[:PageSize], zeroPage[:]) {
			return false
		}
		p = p[PageSize:]
	}
	return bytes.Equal(p, zeroPage[:len(p)])
}

// CopyIn writes data at the flat byte address. Callers are responsible for
// bus-occupancy accounting; the device only checks the address range.
func (d *Device) CopyIn(addr int64, data []byte) error {
	if addr < 0 || addr+int64(len(data)) > d.Capacity() {
		return fmt.Errorf("dram: write [%d,%d) outside capacity %d", addr, addr+int64(len(data)), d.Capacity())
	}
	d.writes += uint64((len(data) + ddr4.BurstBytes - 1) / ddr4.BurstBytes)
	d.copyIn(addr, data)
	return nil
}

// CopyOut reads len(buf) bytes from the flat byte address into buf.
func (d *Device) CopyOut(addr int64, buf []byte) error {
	if addr < 0 || addr+int64(len(buf)) > d.Capacity() {
		return fmt.Errorf("dram: read [%d,%d) outside capacity %d", addr, addr+int64(len(buf)), d.Capacity())
	}
	d.reads += uint64((len(buf) + ddr4.BurstBytes - 1) / ddr4.BurstBytes)
	d.copyOut(addr, buf)
	return nil
}

// TouchedPages reports how many 4 KB pages have backing storage allocated:
// the pages that have ever held a nonzero byte.
func (d *Device) TouchedPages() int { return len(d.pages) }
