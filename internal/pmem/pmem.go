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

// Config sizes the emulated device.
type Config struct {
	// Bytes is the module capacity (128 GB on the testbed; sparse storage
	// makes full size affordable).
	Bytes int64
}

// DefaultConfig mirrors Table I.
func DefaultConfig() Config {
	return Config{
		Bytes: 128 << 30,
	}
}

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
	cfg     Config
	cost    hostcost.Model

	footprint int64
}

// New builds and boots the device (refresh running).
func New(cfg Config) (*Device, error) {
	k := sim.NewKernel()
	timing := ddr4.NewTiming(grade)
	timing.TRFC = trfc
	timing.TREFI = trefi
	if err := timing.Validate(); err != nil {
		return nil, fmt.Errorf("pmem: %w", err)
	}
	const banks, burstsPerRow = 16, 128
	rows := cfg.Bytes / (int64(banks) * int64(burstsPerRow) * ddr4.BurstBytes)
	if rows < 1 {
		return nil, fmt.Errorf("pmem: capacity %d too small", cfg.Bytes)
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
	imcCfg := imc.DefaultConfig()
	imcCfg.TREFI = trefi
	imcCfg.TRFC = trfc
	mc := imc.New(k, ch, imcCfg)
	mc.StartRefresh()
	return &Device{K: k, DRAM: dev, Channel: ch, IMC: mc, cfg: cfg, cost: hostcost.Default()}, nil
}

// Name identifies the target in reports.
func (d *Device) Name() string { return "pmem0-baseline" }

// Kernel returns the device's simulation kernel.
func (d *Device) Kernel() *sim.Kernel { return d.K }

// Capacity returns the device size in bytes.
func (d *Device) Capacity() int64 { return d.cfg.Bytes }

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
	if off < 0 || off+int64(n) > d.cfg.Bytes {
		panic(fmt.Sprintf("pmem: access [%d,%d) out of range", off, off+int64(n)))
	}
	chunks := hostcost.CopyChunks(n)
	cpuSlice := d.cost.CopyCPU(n) / sim.Duration(chunks)
	per := n / chunks
	i := 0
	var step func()
	step = func() {
		if i >= chunks {
			done()
			return
		}
		i++
		last := i == chunks
		sz := per
		if last {
			sz = n - per*(chunks-1)
		}
		buf := make([]byte, sz)
		cont := step
		rs := 0
		if i == 1 {
			rs = 1 // the op's row-activation overhead, charged once
		}
		o := off + int64((i-1)*per)
		d.K.Schedule(cpuSlice, func() {
			if write {
				d.IMC.WriteRS(o, buf, rs, cont)
			} else {
				d.IMC.ReadRS(o, buf, rs, cont)
			}
		})
	}
	step()
}

// Load and Store give the functional byte path (used by integration tests).
func (d *Device) Load(off int64, buf []byte, done func()) {
	d.IMC.Read(off, buf, done)
}

// Store writes data at off.
func (d *Device) Store(off int64, data []byte, done func()) {
	d.IMC.Write(off, data, done)
}
