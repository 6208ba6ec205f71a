// Package hostcost models the host-software cost of one I/O operation
// through the fsdax + libpmem path: the fio dispatch, the TLB/page-walk
// work (a function of the mapped footprint), and the CPU side of the data
// copy. The constants are calibrated against the paper's single-thread
// anchors (Fig. 8 and Fig. 10) and recorded in EXPERIMENTS.md; the *shape*
// of every experiment comes from the simulated machine, these constants
// only pin the software path the simulator does not execute for real.
package hostcost

import (
	"math"

	"nvdimmc/internal/sim"
)

// CacheLine is the coherence granularity.
const CacheLine = 64

// Model holds the host-software cost parameters.
type Model struct {
	// Fixed is the per-op dispatch cost (fio engine + libpmem entry).
	Fixed sim.Duration
	// PerByteSmall is the CPU copy cost per byte up to one page.
	PerByteSmall float64 // picoseconds per byte
	// PerByteBulk is the (cheaper, prefetch-friendly) cost beyond 4 KB.
	PerByteBulk float64 // picoseconds per byte
	// WalkBase scales the TLB/page-walk cost with mapped footprint:
	// walk = WalkBase * log2(footprint/1GB + 1).
	WalkBase sim.Duration
	// WriteExtra is the additional cost of a write op (store + flush
	// pipeline vs load).
	WriteExtra sim.Duration
}

// Default is the calibrated model (see EXPERIMENTS.md, "host cost anchors").
func Default() Model {
	return Model{
		Fixed:        52 * sim.Nanosecond,
		PerByteSmall: 181,
		PerByteBulk:  100,
		WalkBase:     45 * sim.Nanosecond,
		WriteExtra:   100 * sim.Nanosecond,
	}
}

// PageSize is the walk/copy breakpoint.
const PageSize = 4096

// Walk returns the TLB/page-walk component for a mapped footprint.
func (m Model) Walk(footprint int64) sim.Duration {
	if footprint <= 0 {
		return 0
	}
	gb := float64(footprint) / float64(1<<30)
	return sim.Duration(float64(m.WalkBase) * math.Log2(gb+1))
}

// DispatchCPU returns the pre-op CPU time on the issuing thread (engine
// dispatch, TLB/page walk, write setup). The copy cost itself is CopyCPU and
// is interleaved with the bus transfer inside the device op — memcpy IS the
// data movement, so its CPU time and channel occupancy overlap refresh holds
// together rather than as one monolithic block.
func (m Model) DispatchCPU(n int, write bool, footprint int64) sim.Duration {
	d := m.Fixed + m.Walk(footprint)
	if write {
		d += m.WriteExtra
	}
	return d
}

// CopyCPU returns the CPU side of copying n bytes.
func (m Model) CopyCPU(n int) sim.Duration {
	if n <= PageSize {
		return sim.Duration(float64(n) * m.PerByteSmall)
	}
	return sim.Duration(float64(PageSize)*m.PerByteSmall + float64(n-PageSize)*m.PerByteBulk)
}

// CopyChunks splits an n-byte copy into the number of CPU/bus interleaving
// slices the op models use: ~2 KB granules, at most 8. The granule is the
// knob balancing how exposed an op is to refresh holds: finer slicing
// overstates the stall (a real core's memory-level parallelism rides
// through part of a hold), coarser slicing lets the closed loop dodge
// refreshes entirely; 2 KB lands the Fig. 13 refresh-cost curve in the
// paper's band.
func CopyChunks(n int) int {
	c := n / 2048
	if c < 1 {
		c = 1
	}
	if c > 8 {
		c = 8
	}
	return c
}

// ThreadCPU returns the full per-op CPU time (dispatch + copy), the sum the
// Fig. 8 calibration anchors are stated in.
func (m Model) ThreadCPU(n int, write bool, footprint int64) sim.Duration {
	return m.DispatchCPU(n, write, footprint) + m.CopyCPU(n)
}

// Lines returns the cacheline count of an n-byte access.
func Lines(n int) int { return (n + CacheLine - 1) / CacheLine }

// NvdcSerialized returns the nvdc driver's per-op serialized cost (radix
// lookup under the device lock plus per-line coherence bookkeeping). It is
// what caps NVDC-Cached thread scaling at roughly half the baseline's
// (Fig. 9) while staying small for sub-page ops (the 10.9 MIOPS @128 B
// observation, §VII-B4). First-page lines dominate; later pages amortize.
func NvdcSerialized(n int) sim.Duration {
	lines := Lines(n)
	firstPageLines := lines
	if firstPageLines > PageSize/CacheLine {
		firstPageLines = PageSize / CacheLine
	}
	extraPages := (n - 1) / PageSize // pages beyond the first
	if extraPages < 0 {
		extraPages = 0
	}
	return 60*sim.Nanosecond +
		sim.Duration(firstPageLines)*13*sim.Nanosecond +
		sim.Duration(extraPages)*200*sim.Nanosecond
}
