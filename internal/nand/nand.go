// Package nand models the Z-NAND flash devices on the NVDIMM-C board: two
// channels of low-latency SLC NAND (§IV-A), each with dies, blocks and 4 KB
// pages. Operations (Read, Program, Erase) occupy the die for the media
// latency and the channel for the data transfer, serviced through sim
// resources so channel/die contention emerges naturally. The model stores
// real bytes, enforces NAND programming rules (no overwrite without erase),
// injects grown bad blocks, and tracks wear.
package nand

import (
	"fmt"
	"math"

	"nvdimmc/internal/dram"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/sim"
)

// PageSize is the NAND page size, matching the NVDIMM-C 4 KB management
// granularity (§III-A: primitive NAND operations with ECC at 4 KB).
const PageSize = 4096

// Config sizes a Z-NAND subsystem.
type Config struct {
	BlocksPerDie  int
	PagesPerBlock int

	// Media program and erase latencies (reads take readLatency).
	ProgramLatency sim.Duration
	EraseLatency   sim.Duration

	// InitialBadBlockPPM injects factory bad blocks at this rate (parts per
	// million of blocks).
	InitialBadBlockPPM int

	// RawBitErrorRate is the per-bit flip probability on reads (media RBER;
	// SLC Z-NAND is ~1e-8 fresh, rising with wear). The on-die ECC corrects
	// up to eccCorrectableBits per 4 KB codeword.
	RawBitErrorRate float64

	// Seed for bad-block placement and error injection.
	Seed uint64
}

// Geometry of the scaled-down two-channel Z-NAND array.
const (
	Channels    = 2
	DiesPerChan = 2
)

// readLatency is the media read time. Z-NAND is low-latency SLC: reads in
// single-digit microseconds (vs ~50 us for conventional TLC).
const readLatency = 3 * sim.Microsecond

// transferPerPage is the channel occupancy to move one page between the die
// and the controller. The PoC's NAND PHY runs at 50 MHz — a tenth of the
// media's capability (§VII-C) — so this dominates small reads.
const transferPerPage = 8 * sim.Microsecond

// eccCorrectableBits is how many bit errors the on-die ECC corrects per 4 KB
// codeword (§III-A: primitive NAND operations carry ECC at 4 KB
// granularity).
const eccCorrectableBits = 40

// DefaultConfig returns a scaled-down two-channel Z-NAND array with PoC-like
// latencies. Capacity = Channels*DiesPerChan*BlocksPerDie*PagesPerBlock*4 KB.
func DefaultConfig() Config {
	return Config{
		BlocksPerDie:       256,
		PagesPerBlock:      64,
		ProgramLatency:     100 * sim.Microsecond,
		EraseLatency:       1 * sim.Millisecond,
		InitialBadBlockPPM: 2000,
		RawBitErrorRate:    1e-8,
		Seed:               0xBAD5EED,
	}
}

// PageAddr identifies a physical page.
type PageAddr struct {
	Channel, Die, Block, Page int
}

func (a PageAddr) String() string {
	return fmt.Sprintf("ch%d/d%d/b%d/p%d", a.Channel, a.Die, a.Block, a.Page)
}

type block struct {
	erases     uint64
	programmed []bool // per page: programmed since last erase
	zero       []bool // programmed with all-zero data (stored deduplicated)
	nextPage   int    // NAND requires in-order page programming within a block
	bad        bool
	data       [][]byte // lazily allocated per page
}

type die struct {
	blocks []block
	busy   *sim.Resource
}

// Array is the Z-NAND subsystem.
type Array struct {
	k        *sim.Kernel
	cfg      Config
	channels []*sim.Resource
	dies     [][]*die

	reads, programs, erases uint64
	programFails            uint64

	correctedBits uint64
	uncorrectable uint64
	errRng        *sim.Rand

	// opFree recycles Read and Program records (pageOp).
	opFree []*pageOp

	// faults, when non-nil, is consulted at every media operation: read
	// bit-flips (fault.NANDReadBitFlip), program fails (NANDProgramFail),
	// erase fails (NANDEraseFail) and die timeouts (NANDDieTimeout).
	faults *fault.Registry
}

// New builds the array and injects factory bad blocks.
func New(k *sim.Kernel, cfg Config) *Array {
	if cfg.BlocksPerDie <= 0 || cfg.PagesPerBlock <= 0 {
		panic("nand: invalid geometry")
	}
	a := &Array{k: k, cfg: cfg, errRng: sim.NewRand(cfg.Seed ^ 0xECC)}
	rng := sim.NewRand(cfg.Seed)
	for c := 0; c < Channels; c++ {
		a.channels = append(a.channels, sim.NewResource(k, fmt.Sprintf("nand-ch%d", c)))
		var ds []*die
		for d := 0; d < DiesPerChan; d++ {
			dd := &die{
				blocks: make([]block, cfg.BlocksPerDie),
				busy:   sim.NewResource(k, fmt.Sprintf("nand-ch%d-die%d", c, d)),
			}
			for b := range dd.blocks {
				dd.blocks[b].programmed = make([]bool, cfg.PagesPerBlock)
				dd.blocks[b].zero = make([]bool, cfg.PagesPerBlock)
				dd.blocks[b].data = make([][]byte, cfg.PagesPerBlock)
				if cfg.InitialBadBlockPPM > 0 && rng.Intn(1_000_000) < cfg.InitialBadBlockPPM {
					dd.blocks[b].bad = true
				}
			}
			ds = append(ds, dd)
		}
		a.dies = append(a.dies, ds)
	}
	return a
}

// Config returns the array geometry.
func (a *Array) Config() Config { return a.cfg }

// SetFaults attaches the fault-injection registry (nil detaches).
func (a *Array) SetFaults(g *fault.Registry) { a.faults = g }

// dieTimeoutMultiplier is the default latency multiplier for an injected
// die timeout: long enough to trip the driver's CP ack deadline.
const dieTimeoutMultiplier = 400

// opLatency applies an injected die timeout to the nominal latency of one
// die operation.
func (a *Array) opLatency(nominal sim.Duration) sim.Duration {
	if ok, mult := a.faults.FiresParam(fault.NANDDieTimeout); ok {
		if mult <= 1 {
			mult = dieTimeoutMultiplier
		}
		return nominal * sim.Duration(mult)
	}
	return nominal
}

// Capacity returns the raw capacity in bytes (including bad blocks).
func (a *Array) Capacity() int64 {
	c := a.cfg
	return int64(Channels) * int64(DiesPerChan) * int64(c.BlocksPerDie) * int64(c.PagesPerBlock) * PageSize
}

// TotalBlocks returns the number of physical blocks.
func (a *Array) TotalBlocks() int {
	return Channels * DiesPerChan * a.cfg.BlocksPerDie
}

func (a *Array) check(addr PageAddr) (*die, *block, error) {
	c := a.cfg
	if addr.Channel < 0 || addr.Channel >= Channels ||
		addr.Die < 0 || addr.Die >= DiesPerChan ||
		addr.Block < 0 || addr.Block >= c.BlocksPerDie ||
		addr.Page < 0 || addr.Page >= c.PagesPerBlock {
		return nil, nil, fmt.Errorf("nand: address %v out of range", addr)
	}
	d := a.dies[addr.Channel][addr.Die]
	return d, &d.blocks[addr.Block], nil
}

// IsBad reports whether the block holding addr is marked bad.
func (a *Array) IsBad(addr PageAddr) bool {
	_, b, err := a.check(addr)
	return err == nil && b.bad
}

// MarkBad marks a block bad (grown bad block after a program/erase failure).
func (a *Array) MarkBad(addr PageAddr) {
	if _, b, err := a.check(addr); err == nil {
		b.bad = true
	}
}

// Erases returns the erase count of the block holding addr.
func (a *Array) Erases(addr PageAddr) uint64 {
	_, b, err := a.check(addr)
	if err != nil {
		return 0
	}
	return b.erases
}

// pageOp is one Read or Program in flight: the die and channel grants and
// the completion event that deliver it. Records recycle through the array's
// free list when the op completes; their continuations are bound once, when
// the record is first made.
type pageOp struct {
	a    *Array
	addr PageAddr
	d    *die
	b    *block
	// buf is the caller's page a Read fills; data is a Program's stored
	// copy (nil for an all-zero page).
	buf  []byte
	data []byte
	// lat is the die occupancy (tR or tPROG, stretched by a die timeout).
	lat  sim.Duration
	err  error
	done func(error)

	readSensedFn func(sim.Time)
	readXferFn   func()
	readSendFn   func(sim.Time)
	progXferFn   func(sim.Time)
	progDieFn    func()
	progStartFn  func(sim.Time)
	deliverFn    func()
}

func (a *Array) newOp(addr PageAddr, d *die, b *block, done func(error)) *pageOp {
	var op *pageOp
	if n := len(a.opFree); n > 0 {
		op = a.opFree[n-1]
		a.opFree = a.opFree[:n-1]
	} else {
		op = &pageOp{a: a}
		op.readSensedFn = op.readSensed
		op.readXferFn = op.readXfer
		op.readSendFn = op.readSend
		op.progXferFn = op.progXfer
		op.progDieFn = op.progDie
		op.progStartFn = op.progStart
		op.deliverFn = op.deliver
	}
	op.addr, op.d, op.b, op.done = addr, d, b, done
	return op
}

// release returns op to the free list.
func (op *pageOp) release() {
	op.d, op.b, op.buf, op.data, op.err, op.done = nil, nil, nil, nil, nil, nil
	op.a.opFree = append(op.a.opFree, op)
}

// deliver runs at the op's completion instant: the record is released
// before done runs, so done may start the next op on it.
func (op *pageOp) deliver() {
	done, err := op.done, op.err
	op.release()
	done(err)
}

// Read fills buf (PageSize bytes) with one page: never-programmed pages
// read as all-0xFF, as erased NAND does. done receives the outcome after tR
// plus the channel transfer; buf belongs to the array until then.
func (a *Array) Read(addr PageAddr, buf []byte, done func(err error)) {
	d, b, err := a.check(addr)
	if err != nil {
		done(err)
		return
	}
	a.reads++
	// Die busy for tR (array sense), then channel busy for the transfer. An
	// injected die timeout stretches the sense phase.
	op := a.newOp(addr, d, b, done)
	op.buf = buf
	op.lat = a.opLatency(readLatency)
	d.busy.Acquire(op.lat, op.readSensedFn)
}

func (op *pageOp) readSensed(senseStart sim.Time) {
	op.a.k.ScheduleAt(senseStart.Add(op.lat), op.readXferFn)
}

func (op *pageOp) readXfer() {
	op.a.channels[op.addr.Channel].Acquire(transferPerPage, op.readSendFn)
}

// readSend moves the page to the controller at the start of the channel
// transfer, applying ECC.
func (op *pageOp) readSend(start sim.Time) {
	a, b, addr, buf := op.a, op.b, op.addr, op.buf
	switch {
	case b.data[addr.Page] != nil:
		copy(buf, b.data[addr.Page])
	case b.programmed[addr.Page] && b.zero[addr.Page]:
		// all-zero page, stored deduplicated
		clear(buf)
	default:
		for i := range buf {
			buf[i] = 0xFF
		}
	}
	// ECC: raw bit errors are corrected up to the code's budget;
	// beyond it the read fails and the (corrupted) data must not
	// be served. An injected fault adds raw flips on top of the
	// sampled media rate (param = flip count; default one beyond
	// the correction budget, i.e. an uncorrectable codeword).
	errs := a.sampleBitErrors()
	if ok, flips := a.faults.FiresParam(fault.NANDReadBitFlip); ok {
		if flips <= 0 {
			flips = int64(eccCorrectableBits) + 1
		}
		errs += int(flips)
	}
	if errs > 0 {
		if errs <= eccCorrectableBits {
			a.correctedBits += uint64(errs)
		} else {
			a.uncorrectable++
			for i := 0; i < errs; i++ {
				bit := a.errRng.Intn(PageSize * 8)
				buf[bit/8] ^= 1 << uint(bit%8)
			}
			op.err = fmt.Errorf("nand: uncorrectable ECC error at %v (%d bit errors > %d correctable)",
				addr, errs, eccCorrectableBits)
		}
	}
	a.k.ScheduleAt(start.Add(transferPerPage), op.deliverFn)
}

// Program writes one page. NAND constraints are enforced: the block must not
// be bad, the page must be erased, and pages within a block must be written
// in order. done receives any error after transfer plus tPROG. The array
// copies data before Program returns.
func (a *Array) Program(addr PageAddr, data []byte, done func(err error)) {
	d, b, err := a.check(addr)
	if err != nil {
		if done != nil {
			done(err)
		}
		return
	}
	if len(data) != PageSize {
		if done != nil {
			done(fmt.Errorf("nand: program size %d != page size %d", len(data), PageSize))
		}
		return
	}
	op := a.newOp(addr, d, b, done)
	// All-zero pages are stored deduplicated: a simulator memory
	// optimization that lets tests prefill full-size devices cheaply
	// without changing observable behaviour.
	if !dram.AllZero(data) {
		op.data = make([]byte, PageSize)
		copy(op.data, data)
	}
	// Channel transfer first (controller pushes data to the die's page
	// register), then the die is busy for tPROG. Legality is checked when
	// the die takes the operation: commands queue at the die, so a pipelined
	// program to page N+1 issued while page N is still in flight is legal.
	a.channels[addr.Channel].Acquire(transferPerPage, op.progXferFn)
}

func (op *pageOp) progXfer(xferStart sim.Time) {
	op.a.k.ScheduleAt(xferStart.Add(transferPerPage), op.progDieFn)
}

func (op *pageOp) progDie() {
	op.lat = op.a.opLatency(op.a.cfg.ProgramLatency)
	op.d.busy.Acquire(op.lat, op.progStartFn)
}

// progStart checks legality when the die takes the program and stores the
// page; the outcome is delivered tPROG later.
func (op *pageOp) progStart(start sim.Time) {
	a, b, addr := op.a, op.b, op.addr
	var err error
	switch {
	case b.bad:
		err = fmt.Errorf("nand: program to bad block %v", addr)
	case b.programmed[addr.Page]:
		err = fmt.Errorf("nand: overwrite of programmed page %v without erase", addr)
	case addr.Page != b.nextPage:
		err = fmt.Errorf("nand: out-of-order program %v (next programmable page is %d)", addr, b.nextPage)
	}
	if err == nil && a.faults.Fires(fault.NANDProgramFail) {
		// Injected media program failure: the program-status
		// register reports FAIL and the page contents are
		// undefined; the FTL retires the block and rewrites.
		err = fmt.Errorf("nand: program failed at %v (injected media fault)", addr)
	}
	if err != nil {
		a.programFails++
	} else {
		a.programs++
		b.data[addr.Page] = op.data
		b.zero[addr.Page] = op.data == nil
		b.programmed[addr.Page] = true
		b.nextPage = addr.Page + 1
	}
	if op.done == nil {
		op.release()
		return
	}
	op.err = err
	a.k.ScheduleAt(start.Add(op.lat), op.deliverFn)
}

// Erase wipes a block, incrementing its wear counter.
func (a *Array) Erase(addr PageAddr, done func(err error)) {
	d, b, err := a.check(addr)
	if err != nil {
		if done != nil {
			done(err)
		}
		return
	}
	if b.bad {
		if done != nil {
			done(fmt.Errorf("nand: erase of bad block %v", addr))
		}
		return
	}
	a.erases++
	d.busy.Acquire(a.cfg.EraseLatency, func(start sim.Time) {
		if a.faults.Fires(fault.NANDEraseFail) {
			// Injected erase failure: the block's state is undefined; the
			// FTL retires it as grown-bad. Contents are left untouched so a
			// paranoid caller re-reading sees stale (not silently-erased)
			// data.
			if done != nil {
				a.k.ScheduleAt(start.Add(a.cfg.EraseLatency), func() {
					done(fmt.Errorf("nand: erase failed at %v (injected media fault)", addr))
				})
			}
			return
		}
		b.erases++
		for i := range b.programmed {
			b.programmed[i] = false
			b.zero[i] = false
			b.data[i] = nil
		}
		b.nextPage = 0
		if done != nil {
			a.k.ScheduleAt(start.Add(a.cfg.EraseLatency), func() { done(nil) })
		}
	})
}

// Stats reports operation counters.
func (a *Array) Stats() (reads, programs, erases, programFails uint64) {
	return a.reads, a.programs, a.erases, a.programFails
}

// ECCStats reports corrected bits and uncorrectable codewords.
func (a *Array) ECCStats() (correctedBits, uncorrectable uint64) {
	return a.correctedBits, a.uncorrectable
}

// sampleBitErrors draws the number of raw bit errors in one page read:
// a Poisson sample with mean RBER * pageBits (inversion method; the mean is
// tiny for healthy media, so this is cheap).
func (a *Array) sampleBitErrors() int {
	lambda := a.cfg.RawBitErrorRate * float64(PageSize*8)
	if lambda <= 0 {
		return 0
	}
	// Knuth inversion; fine for lambda up to a few hundred.
	l := mathExp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= a.errRng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1<<16 {
			return k // pathological RBER; cap the loop
		}
	}
}

// mathExp avoids importing math for one call site... it simply wraps it.
func mathExp(x float64) float64 { return math.Exp(x) }

// MaxWear returns the highest erase count across all blocks.
func (a *Array) MaxWear() uint64 {
	var m uint64
	for _, ds := range a.dies {
		for _, d := range ds {
			for i := range d.blocks {
				if d.blocks[i].erases > m {
					m = d.blocks[i].erases
				}
			}
		}
	}
	return m
}

// TotalErases sums erase counts across all blocks.
func (a *Array) TotalErases() uint64 {
	var s uint64
	for _, ds := range a.dies {
		for _, d := range ds {
			for i := range d.blocks {
				s += d.blocks[i].erases
			}
		}
	}
	return s
}
