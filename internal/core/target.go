package core

import (
	"fmt"

	"nvdimmc/internal/hostcost"
	"nvdimmc/internal/sim"
)

// FioTarget adapts a System to the fio workload runner: each op pays the
// pre-op host CPU cost on its thread, the nvdc serialized section under the
// driver lock, the fault path for each spanned page (hit or miss), and then
// the copy itself as interleaved CPU/bus chunks — memcpy is the data
// movement, so its CPU time and channel occupancy overlap refresh holds
// together.
type FioTarget struct {
	s    *System
	cost hostcost.Model

	footprint     int64
	walkFootprint int64
}

// NewFioTarget returns the fio adapter for the system.
func (s *System) NewFioTarget() *FioTarget {
	return &FioTarget{s: s, cost: hostcost.Default()}
}

// Name identifies the target in reports.
func (t *FioTarget) Name() string { return "nvdimm-c" }

// Kernel returns the system kernel.
func (t *FioTarget) Kernel() *sim.Kernel { return t.s.K }

// Capacity is the block device size.
func (t *FioTarget) Capacity() int64 { return t.s.Driver.CapacityPages() * PageSize }

// Prepare records the workload footprint.
func (t *FioTarget) Prepare(footprint int64) {
	t.footprint = footprint
	if t.walkFootprint == 0 {
		t.walkFootprint = footprint
	}
}

// SetWalkFootprint overrides the footprint used for TLB/page-walk costs.
// Scaled experiments set it to the paper's full-size footprint so the host
// software path is costed as on the real testbed while device offsets stay
// within the scaled capacity.
func (t *FioTarget) SetWalkFootprint(f int64) { t.walkFootprint = f }

// ThreadCPU is the pre-op host cost on the issuing thread.
func (t *FioTarget) ThreadCPU(n int, write bool) sim.Duration {
	return t.cost.DispatchCPU(n, write, t.walkFootprint)
}

// Do performs the device part of one op. It keeps the legacy error-free
// signature for fault-free workloads: any driver failure panics. Schedulers
// that must survive injected failures — the pool's fault-tolerant front end
// — dispatch through DoE instead.
func (t *FioTarget) Do(off int64, n int, write bool, done func()) {
	t.start(off, n, write, nil, done)
}

// DoE is Do with driver errors surfaced to done instead of panicking: a
// member that goes read-only, exhausts its CP retries or hits uncorrectable
// media mid-run fails the op with the driver's typed error (wrapping
// nvdc.ErrReadOnly, nvdc.ErrMediaRead or a *nvdc.CPTimeoutError) so the
// caller can retry, reroute or quarantine instead of wedging. On error the
// pages before the failing one have been faulted in; the transfer itself is
// all-or-nothing.
func (t *FioTarget) DoE(off int64, n int, write bool, done func(error)) {
	t.start(off, n, write, done, nil)
}

// start runs one op as a fioOp record: the serialized driver section (lock
// shared with the miss path), the fault of each spanned page in order, then
// the transfer. Exactly one of done and plain is non-nil.
func (t *FioTarget) start(off int64, n int, write bool, done func(error), plain func()) {
	if off < 0 || off+int64(n) > t.Capacity() {
		panic(fmt.Sprintf("core: fio op [%d,%d) outside device", off, off+int64(n)))
	}
	s := t.s
	op := s.newFioOp()
	op.t, op.off, op.n, op.write = t, off, n, write
	op.done, op.plain = done, plain
	s.Driver.Serialize(hostcost.NvdcSerialized(n), op.serializedFn)
}

// fioOp is one FioTarget op in flight. Its continuations are bound once,
// when the record is first made, and the record returns to its System's
// free list when the op finishes, so a resident-page op allocates nothing
// in steady state.
type fioOp struct {
	t     *FioTarget
	off   int64
	n     int
	write bool
	done  func(error)
	plain func()

	// lpn is the next page to fault; last is the op's final page.
	lpn, last int64

	// Transfer state: chunk i of chunks, each per bytes (the last takes the
	// remainder) after a cpuSlice of copy CPU; o, sz and rs describe the
	// chunk whose CPU slice is running.
	base     int64
	chunks   int
	per      int
	i        int
	cpuSlice sim.Duration
	o        int64
	sz       int
	rs       int

	serializedFn func()
	faultedFn    func(slot int, err error)
	stepFn       func()
	issueFn      func()
}

// newFioOp pops a record from the free list, or makes one and binds its
// continuations.
func (s *System) newFioOp() *fioOp {
	if n := len(s.opFree); n > 0 {
		op := s.opFree[n-1]
		s.opFree = s.opFree[:n-1]
		return op
	}
	op := &fioOp{}
	op.serializedFn = op.serialized
	op.faultedFn = op.faulted
	op.stepFn = op.step
	op.issueFn = op.issue
	return op
}

// finish releases the record, then delivers the outcome: the callback may
// start the next op on this System, which can reuse the record.
func (op *fioOp) finish(err error) {
	t, off, n := op.t, op.off, op.n
	done, plain := op.done, op.plain
	op.t, op.done, op.plain = nil, nil, nil
	s := t.s
	s.opFree = append(s.opFree, op)
	if plain == nil {
		done(err)
		return
	}
	if err != nil {
		panic(fmt.Sprintf("core: fio op [%d,%d): %v", off, off+int64(n), err))
	}
	plain()
}

// serialized runs when the driver lock's hold ends: fault the first page.
func (op *fioOp) serialized() {
	op.lpn = op.off / PageSize
	op.last = (op.off + int64(op.n) - 1) / PageSize
	op.faultNext()
}

// faultNext faults page op.lpn, or starts the transfer once every spanned
// page is resident. A hit calls faulted synchronously.
func (op *fioOp) faultNext() {
	if op.lpn > op.last {
		op.transfer()
		return
	}
	op.t.s.Driver.FaultE(op.lpn, op.write, op.faultedFn)
}

func (op *fioOp) faulted(_ int, err error) {
	if err != nil {
		op.finish(err)
		return
	}
	op.lpn++
	op.faultNext()
}

// transfer moves the op's bytes over the channel as interleaved CPU/bus
// chunks. Sub-page ops address their slot; multi-page spans cover scattered
// slots, so they are charged at the slot-area base — only occupancy matters
// here, the functional byte path lives in System.Load/Store. Reads land in
// the System's sink and writes come from its zero source (see readSink).
func (op *fioOp) transfer() {
	s := op.t.s
	first := op.off / PageSize
	op.base = s.Layout.SlotsOffset
	if first == op.last {
		slot := s.Driver.SlotOf(first)
		if slot >= 0 {
			op.base = s.Layout.SlotAddr(slot) + op.off%PageSize
		}
	}
	op.chunks = hostcost.CopyChunks(op.n)
	op.cpuSlice = op.t.cost.CopyCPU(op.n) / sim.Duration(op.chunks)
	op.per = op.n / op.chunks
	op.i = 0
	op.step()
}

// step starts the next chunk's CPU slice, or finishes the op.
func (op *fioOp) step() {
	if op.i >= op.chunks {
		op.finish(nil)
		return
	}
	op.i++
	op.sz = op.per
	if op.i == op.chunks {
		op.sz = op.n - op.per*(op.chunks-1)
	}
	op.rs = 0
	if op.i == 1 {
		op.rs = 1
	}
	s := op.t.s
	op.o = op.base + int64((op.i-1)*op.per)
	if op.o+int64(op.sz) > s.DRAM.Capacity() {
		op.o = op.base // clamp: occupancy-only transfer
	}
	s.K.Schedule(op.cpuSlice, op.issueFn)
}

// issue puts the chunk on the bus once its CPU slice has elapsed.
func (op *fioOp) issue() {
	s := op.t.s
	if op.write {
		s.IMC.WriteRS(op.o, s.zeroSource(op.sz), op.rs, op.stepFn)
	} else {
		s.IMC.ReadRS(op.o, s.readSink(op.sz), op.rs, op.stepFn)
	}
}

// readSink returns n bytes of the System's read sink: fio reads copy into it
// and nothing reads it back. It grows on demand. The sink is per System, not
// shared: pool members run on separate workers.
func (s *System) readSink(n int) []byte {
	if len(s.sink) < n {
		s.sink = make([]byte, n)
	}
	return s.sink[:n]
}

// zeroSource returns n bytes of the System's zero source: fio writes carry
// no data, so every one copies zeros into the DRAM cache, as a fresh buffer
// did. Nothing may write to it; it grows on demand.
func (s *System) zeroSource(n int) []byte {
	if len(s.zeros) < n {
		s.zeros = make([]byte, n)
	}
	return s.zeros[:n]
}
