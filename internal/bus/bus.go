// Package bus models the shared DDR4 memory channel of the NVDIMM-C board:
// the one set of CA/DQ wires routed both to the host iMC and to the FPGA's
// DDR4 controller (NVMC). There is deliberately no arbiter — the standard
// DDR4 interface has no request/grant and no feedback signal (§III-B) — so
// the channel's job is to route commands to the DRAM, feed the snoop taps
// (refresh detector), and *detect* conflicting use by the two masters, which
// on real hardware would corrupt data or crash the system.
package bus

import (
	"fmt"

	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/dram"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
)

// Master identifies a bus master.
type Master int

// The two masters sharing the channel (§III-B).
const (
	HostIMC Master = iota
	NVMC
)

func (m Master) String() string {
	if m == HostIMC {
		return "iMC"
	}
	return "NVMC"
}

// Collision records conflicting channel use. With the tRFC mechanism enabled
// none may ever occur; the ablation with the mechanism disabled produces
// them, demonstrating why the mechanism is necessary.
type Collision struct {
	At   sim.Time
	By   Master
	Desc string
}

func (c Collision) String() string { return fmt.Sprintf("%v: %v: %s", c.At, c.By, c.Desc) }

// Snoop observes every CA bus cycle. The refresh detector attaches one.
type Snoop func(at sim.Time, state ddr4.CAState)

// Channel is the shared memory channel with one DRAM rank behind it.
type Channel struct {
	k      *sim.Kernel
	dev    *dram.Device
	timing ddr4.Timing

	// DataBus serializes host-side data-bus occupancy: CAS bursts and the
	// programmed-tRFC refresh dead time. The NVMC deliberately does NOT
	// acquire it — there is no arbitration on a standard DDR4 channel; its
	// safety comes only from the refresh-window discipline.
	DataBus *sim.Resource

	snoops []Snoop

	// Trace, when attached to sinks, publishes channel activity: the
	// bring-up ring log and the protocol auditor both subscribe here.
	Trace *trace.Recorder

	lastCmdAt     sim.Time
	lastCmdMaster Master
	lastCmdValid  bool

	collisions     []Collision
	collisionLimit int
	collisionsN    uint64

	// hostHolds tracks the current host data-bus hold for overlap checks
	// against NVMC transfers.
	hostHoldUntil sim.Time

	// xferFree recycles host transfer records (see hostXfer).
	xferFree []*hostXfer

	// Counters.
	hostCommands, nvmcCommands uint64
	hostBytes, nvmcBytes       uint64
	snoopDrops                 uint64

	// faults, when non-nil, injects transient CA snoop errors
	// (fault.BusSnoopDrop): the sampled command never reaches the snoop
	// taps, so a dropped REF costs the NVMC one window — the recoverable
	// signal-integrity glitch, as opposed to a false positive, which is
	// system-fatal by design.
	faults *fault.Registry
}

// New returns a channel wired to dev.
func New(k *sim.Kernel, dev *dram.Device) *Channel {
	return &Channel{
		k:              k,
		dev:            dev,
		timing:         dev.Config().Timing,
		DataBus:        sim.NewResource(k, "ddr4-channel"),
		collisionLimit: 1024,
	}
}

// Device returns the DRAM rank behind the channel.
func (c *Channel) Device() *dram.Device { return c.dev }

// Timing returns the channel timing parameters.
func (c *Channel) Timing() ddr4.Timing { return c.timing }

// AttachSnoop registers a CA-bus observer (e.g. the refresh detector's
// deserializer inputs, Fig. 4).
func (c *Channel) AttachSnoop(s Snoop) { c.snoops = append(c.snoops, s) }

// Collisions returns recorded collisions (capped; see CollisionCount).
func (c *Channel) Collisions() []Collision { return c.collisions }

// CollisionCount returns the total number of collisions observed.
func (c *Channel) CollisionCount() uint64 { return c.collisionsN }

func (c *Channel) collide(by Master, format string, args ...interface{}) {
	if c.Trace.Active() {
		c.Trace.Record(trace.Event{
			At: c.k.Now(), Kind: trace.KindCollision,
			Master: int(by), Detail: fmt.Sprintf(format, args...),
		})
	}
	c.collisionsN++
	if len(c.collisions) < c.collisionLimit {
		c.collisions = append(c.collisions, Collision{
			At:   c.k.Now(),
			By:   by,
			Desc: fmt.Sprintf(format, args...),
		})
	}
}

// Issue drives one command onto the CA bus at the current instant. It feeds
// the snoop taps, checks for command collisions (two masters driving CA in
// the same clock — Fig. 2a case C1), and applies the command to the DRAM.
func (c *Channel) Issue(m Master, cmd ddr4.Command) {
	now := c.k.Now()
	state := ddr4.Encode(cmd.Kind)
	if c.faults.Fires(fault.BusSnoopDrop) {
		c.snoopDrops++
	} else {
		for _, s := range c.snoops {
			s(now, state)
		}
	}
	if m == HostIMC {
		c.hostCommands++
	} else {
		c.nvmcCommands++
	}
	if c.Trace.Active() {
		kind := trace.KindCommand
		if cmd.Kind == ddr4.CmdRefresh {
			kind = trace.KindRefresh
		}
		c.Trace.Record(trace.Event{At: now, Kind: kind, Master: int(m), Cmd: cmd})
	}
	// Command collision: both masters driving the CA wires within one clock.
	if c.lastCmdValid && now.Sub(c.lastCmdAt) < c.timing.TCK && c.lastCmdMaster != m {
		c.collide(m, "CA bus driven by %v and %v within one tCK (%v)", c.lastCmdMaster, m, cmd)
	}
	c.lastCmdAt = now
	c.lastCmdMaster = m
	c.lastCmdValid = true

	// NVMC commands outside the extra window are unsafe even if no host
	// command happens to be in flight this cycle: the iMC issues commands
	// unpredictably (§III-B), so any access outside the guaranteed-quiet
	// window is a latent conflict. The model treats it as a collision.
	if m == NVMC && cmd.Kind != ddr4.CmdDeselect && cmd.Kind != ddr4.CmdNOP && !c.dev.InExtraWindow() {
		c.collide(m, "NVMC command %v outside the extra-tRFC window", cmd)
	}
	c.dev.Apply(cmd)
}

// HostTransferTime returns how long the data bus is occupied moving n bytes
// for the host, including row activate/precharge overhead for rowSwitches
// row transitions.
func (c *Channel) HostTransferTime(n int, rowSwitches int) sim.Duration {
	bursts := (n + ddr4.BurstBytes - 1) / ddr4.BurstBytes
	d := sim.Duration(bursts) * c.timing.TBL
	d += sim.Duration(rowSwitches) * (c.timing.TRCD + c.timing.TRP + c.timing.TCL)
	return d
}

// HostRead acquires the host data bus, copies n bytes out of the DRAM at the
// grant instant, and calls done (if non-nil) when the bus is released.
func (c *Channel) HostRead(addr int64, buf []byte, rowSwitches int, done func()) {
	c.hostTransfer(addr, buf, true, rowSwitches, done)
}

// HostWrite acquires the host data bus and copies data into the DRAM at the
// grant instant. HostWrite takes ownership of data: the caller must not
// modify it until done runs (the iMC's WPQ buffer is the one caller, and it
// recycles the buffer only then).
func (c *Channel) HostWrite(addr int64, data []byte, rowSwitches int, done func()) {
	c.hostTransfer(addr, data, false, rowSwitches, done)
}

// maxGrant bounds one host data-bus grant in bytes. A longer transfer is
// split into grants of at most maxGrant bytes, each requested when the
// previous one releases the bus, so a REF that fell due meanwhile is
// granted between them, as a real iMC refreshes between bursts: one grant
// for a whole 1 MiB transfer held the bus about 82 µs, past the JEDEC
// budget of nine postponed REFs. The row-switch charge is spread over the
// grants, so their holds add up to HostTransferTime of the whole transfer.
const maxGrant = 64 << 10

// hostXfer is one host data-bus transaction waiting for its grants. Records
// are recycled through the channel's free list; grantFn and requestFn are
// bound once, when the record is first made, so a transfer allocates
// nothing in steady state.
type hostXfer struct {
	c    *Channel
	addr int64
	buf  []byte // the bytes not yet moved
	read bool
	rows int // row switches not yet charged
	n    int // the pending grant's bytes
	hold sim.Duration
	done func()

	grantFn   func(start sim.Time)
	requestFn func()
}

func (c *Channel) hostTransfer(addr int64, buf []byte, read bool, rowSwitches int, done func()) {
	var x *hostXfer
	if n := len(c.xferFree); n > 0 {
		x = c.xferFree[n-1]
		c.xferFree = c.xferFree[:n-1]
	} else {
		x = &hostXfer{c: c}
		x.grantFn = x.grant
		x.requestFn = x.request
	}
	x.addr, x.buf, x.read, x.rows, x.done = addr, buf, read, rowSwitches, done
	x.request()
}

// request asks for the bus for the next grant: at most maxGrant bytes, and
// an equal share of the row switches still to charge.
func (x *hostXfer) request() {
	x.n = min(len(x.buf), maxGrant)
	rows := x.rows
	if x.n < len(x.buf) {
		rows /= (len(x.buf) + maxGrant - 1) / maxGrant
	}
	x.rows -= rows
	x.hold = x.c.HostTransferTime(x.n, rows)
	x.c.DataBus.Acquire(x.hold, x.grantFn)
}

// grant moves the grant's bytes at its start. Until the last grant it
// requests the next one at the release, where it queues behind whatever
// asked for the bus meanwhile (a due REF among them); the last grant
// schedules done at its release and frees the record.
func (x *hostXfer) grant(start sim.Time) {
	c := x.c
	buf := x.buf[:x.n]
	var err error
	if x.read {
		err = c.dev.CopyOut(x.addr, buf)
	} else {
		err = c.dev.CopyIn(x.addr, buf)
	}
	if err != nil {
		op := "write"
		if x.read {
			op = "read"
		}
		panic(fmt.Sprintf("bus: host %s: %v", op, err))
	}
	end := start.Add(x.hold)
	c.hostBytes += uint64(x.n)
	c.hostHoldUntil = end
	if c.Trace.Active() {
		c.Trace.Record(trace.Event{
			At: start, Kind: trace.KindHostData, Read: x.read,
			Addr: x.addr, Bytes: x.n, End: end,
		})
	}
	if x.n < len(x.buf) {
		x.addr += int64(x.n)
		x.buf = x.buf[x.n:]
		c.k.ScheduleAt(end, x.requestFn)
		return
	}
	if x.done != nil {
		c.k.ScheduleAt(end, x.done)
	}
	x.buf, x.done = nil, nil
	c.xferFree = append(c.xferFree, x)
}

// NVMCAccess performs an immediate (already-timed) NVMC data transfer of n
// bytes at the current instant. The NVMC's own FSM is responsible for doing
// this only inside the extra window; accesses outside it are recorded as
// collisions (and additionally collide with any host hold in progress).
// dir=true reads DRAM into buf; dir=false writes buf into DRAM.
func (c *Channel) NVMCAccess(addr int64, buf []byte, read bool) error {
	now := c.k.Now()
	if !c.dev.InExtraWindow() {
		c.collide(NVMC, "NVMC data transfer (%dB) outside the extra-tRFC window", len(buf))
		if c.hostHoldUntil > now {
			c.collide(NVMC, "NVMC transfer overlaps live host burst")
		}
	}
	c.nvmcBytes += uint64(len(buf))
	if c.Trace.Active() {
		c.Trace.Record(trace.Event{
			At: now, Kind: trace.KindNVMCData, Read: read,
			Addr: addr, Bytes: len(buf),
		})
	}
	if read {
		return c.dev.CopyOut(addr, buf)
	}
	return c.dev.CopyIn(addr, buf)
}

// WarpIdleRefreshCycles credits m idle refresh cycles without driving the
// CA wires: per cycle the host issued PREA+REF (two CA commands, no data
// bytes) and the NVMC moved pollBytes of window-poll data (no CA command
// — CP polls are plain data-bus reads). rLast is the instant of the last
// warped REF, which becomes the last-command timestamp for the collision
// window check. The caller owns the proof that the channel was otherwise
// untouched across the warped span (no host transfer, no NVMC command),
// and warps the snoop consumers (refresh detector) separately.
func (c *Channel) WarpIdleRefreshCycles(m uint64, rLast sim.Time, pollBytes uint64) {
	if m == 0 {
		return
	}
	c.hostCommands += 2 * m
	c.nvmcBytes += m * pollBytes
	c.lastCmdAt = rLast
	c.lastCmdMaster = HostIMC
	c.lastCmdValid = true
}

// Stats reports per-master command and byte counters.
func (c *Channel) Stats() (hostCmds, nvmcCmds, hostBytes, nvmcBytes uint64) {
	return c.hostCommands, c.nvmcCommands, c.hostBytes, c.nvmcBytes
}

// SetFaults attaches the fault-injection registry (nil detaches).
func (c *Channel) SetFaults(g *fault.Registry) { c.faults = g }

// SnoopDrops reports CA samples lost to injected transient snoop errors.
func (c *Channel) SnoopDrops() uint64 { return c.snoopDrops }
