// Package pmem models the paper's baseline: the Linux emulated NVDIMM
// (/dev/pmem0, §VI) — a plain DRAM module reserved via memmap and exposed
// through fsdax. It has no NVM behind it and no cache layer: every access is
// a direct DRAM access, which is why the paper treats it as the upper bound
// for NVDIMM-C. Table I gives it the same 1.25 us programmed tRFC as the
// NVDIMM-C channel.
package pmem

import (
	"fmt"

	"nvdimmc/internal/bus"
	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/dram"
	"nvdimmc/internal/hostcost"
	"nvdimmc/internal/imc"
	"nvdimmc/internal/sim"
)

// Bytes is the module capacity: Table I's 128 GB (sparse storage makes the
// full size affordable).
const Bytes = 128 << 30

// The emulated module's channel mirrors Table I: DDR4-1600 with the PoC's
// refresh programming.
const (
	grade = ddr4.DDR4_1600
	trefi = ddr4.TREFI
	trfc  = 1250 * sim.Nanosecond
)

// Device is the emulated pmem module with its own channel and iMC.
type Device struct {
	K       *sim.Kernel
	DRAM    *dram.Device
	Channel *bus.Channel
	IMC     *imc.Controller
	cost    hostcost.Model

	footprint int64

	// opFree recycles Do records (copyOp). sink is the read sink and zeros
	// the zero source of Do's chunks: fio reads copy into the sink and
	// nothing reads it back; fio writes carry no data, so they copy zeros.
	opFree []*copyOp
	sink   []byte
	zeros  []byte
}

// New builds and boots Table I's baseline module (refresh running).
func New() *Device {
	k := sim.NewKernel()
	timing := ddr4.NewTiming(grade)
	timing.TRFC = trfc
	timing.TREFI = trefi
	const banks, burstsPerRow = 16, 128
	dev := dram.New(k, dram.Config{
		Timing:       timing,
		Banks:        banks,
		Rows:         Bytes / (banks * burstsPerRow * ddr4.BurstBytes),
		BurstsPerRow: burstsPerRow,
		StandardTRFC: ddr4.Density8Gb.StandardTRFC(),
	})
	ch := bus.New(k, dev)
	mc := imc.New(k, ch, imc.Config{TREFI: trefi, TRFC: trfc})
	mc.StartRefresh()
	return &Device{K: k, DRAM: dev, Channel: ch, IMC: mc, cost: hostcost.Default()}
}

// Name identifies the target in reports.
func (d *Device) Name() string { return "pmem0-baseline" }

// Kernel returns the device's simulation kernel.
func (d *Device) Kernel() *sim.Kernel { return d.K }

// Capacity returns the device size in bytes.
func (d *Device) Capacity() int64 { return Bytes }

// Prepare records the workload footprint (drives page-walk cost).
func (d *Device) Prepare(footprint int64) { d.footprint = footprint }

// ThreadCPU is the pre-op host CPU cost on the issuing thread; the copy
// cost is interleaved with the transfer inside Do.
func (d *Device) ThreadCPU(n int, write bool) sim.Duration {
	return d.cost.DispatchCPU(n, write, d.footprint)
}

// Do performs one I/O against the device: the memcpy through the iMC,
// modelled as interleaved CPU/bus chunks so refresh holds intersect the op
// the way they do a real copy loop.
func (d *Device) Do(off int64, n int, write bool, done func()) {
	if off < 0 || off+int64(n) > Bytes {
		panic(fmt.Sprintf("pmem: access [%d,%d) out of range", off, off+int64(n)))
	}
	var op *copyOp
	if k := len(d.opFree); k > 0 {
		op = d.opFree[k-1]
		d.opFree = d.opFree[:k-1]
	} else {
		op = &copyOp{d: d}
		op.stepFn = op.step
		op.issueFn = op.issue
	}
	op.off, op.n, op.write, op.done = off, n, write, done
	op.chunks = hostcost.CopyChunks(n)
	op.cpuSlice = d.cost.CopyCPU(n) / sim.Duration(op.chunks)
	op.per = n / op.chunks
	op.i = 0
	op.step()
}

// copyOp is one Do in flight: chunk i of chunks, each per bytes (the last
// takes the remainder) after a cpuSlice of copy CPU; o, sz and rs describe
// the chunk whose CPU slice is running. Its continuations are bound once,
// when the record is first made, and the record returns to the device's
// free list when the op finishes, so Do allocates nothing once warm.
type copyOp struct {
	d     *Device
	off   int64
	n     int
	write bool
	done  func()

	chunks   int
	per      int
	i        int
	cpuSlice sim.Duration
	o        int64
	sz       int
	rs       int

	stepFn  func()
	issueFn func()
}

// step starts the next chunk's CPU slice, or finishes the op: the record
// is released before done runs, so done may start the next op on it.
func (op *copyOp) step() {
	if op.i >= op.chunks {
		d, done := op.d, op.done
		op.done = nil
		d.opFree = append(d.opFree, op)
		done()
		return
	}
	op.i++
	op.sz = op.per
	if op.i == op.chunks {
		op.sz = op.n - op.per*(op.chunks-1)
	}
	op.rs = 0
	if op.i == 1 {
		op.rs = 1 // the op's row-activation overhead, charged once
	}
	op.o = op.off + int64((op.i-1)*op.per)
	op.d.K.Schedule(op.cpuSlice, op.issueFn)
}

// issue puts the chunk on the bus once its CPU slice has elapsed.
func (op *copyOp) issue() {
	d := op.d
	if op.write {
		d.IMC.WriteRS(op.o, grow(&d.zeros, op.sz), op.rs, op.stepFn)
	} else {
		d.IMC.ReadRS(op.o, grow(&d.sink, op.sz), op.rs, op.stepFn)
	}
}

// grow returns the first n bytes of *buf, growing it on demand.
func grow(buf *[]byte, n int) []byte {
	if len(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// Load and Store give the functional byte path (used by integration tests).
func (d *Device) Load(off int64, buf []byte, done func()) {
	d.IMC.Read(off, buf, done)
}

// Store writes data at off.
func (d *Device) Store(off int64, data []byte, done func()) {
	d.IMC.Write(off, data, done)
}
