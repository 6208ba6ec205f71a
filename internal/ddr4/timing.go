// Package ddr4 defines the slice of the JEDEC DDR4 specification that the
// NVDIMM-C architecture depends on: speed grades, the timing parameters the
// host iMC and the NVMC's DDR4 controller must agree on, the command set,
// and the command/address (CA) pin encoding that the refresh detector snoops.
package ddr4

import (
	"fmt"

	"nvdimmc/internal/sim"
)

// SpeedGrade identifies a DDR4 data rate in MT/s.
type SpeedGrade int

// Speed grades used in the paper: the PoC board is limited to DDR4-1600 by
// its vertical height; DDR4-2400 appears in the Fig. 1a frontend analysis.
const (
	DDR4_1600 SpeedGrade = 1600
	DDR4_1866 SpeedGrade = 1866
	DDR4_2133 SpeedGrade = 2133
	DDR4_2400 SpeedGrade = 2400
	DDR4_2666 SpeedGrade = 2666
	DDR4_3200 SpeedGrade = 3200
)

// TCK returns the clock period for the grade. DDR transfers two beats per
// clock, so the clock frequency is MT/s / 2.
func (g SpeedGrade) TCK() sim.Duration {
	// period_ps = 1e12 / (MT/s * 1e6 / 2) = 2e6 / MTs ps
	return sim.Duration(2_000_000 / int64(g))
}

func (g SpeedGrade) String() string { return fmt.Sprintf("DDR4-%d", int(g)) }

// Density identifies a DRAM component density, which selects tRFC.
type Density int

// Component densities with JEDEC tRFC1 values.
const (
	Density2Gb  Density = 2
	Density4Gb  Density = 4
	Density8Gb  Density = 8
	Density16Gb Density = 16
)

// StandardTRFC returns the JEDEC tRFC1 for the density (260 ns for 4 Gb,
// 350 ns for 8 Gb, per §II-B of the paper).
func (d Density) StandardTRFC() sim.Duration {
	switch d {
	case Density2Gb:
		return 160 * sim.Nanosecond
	case Density4Gb:
		return 260 * sim.Nanosecond
	case Density8Gb:
		return 350 * sim.Nanosecond
	case Density16Gb:
		return 550 * sim.Nanosecond
	default:
		return 350 * sim.Nanosecond
	}
}

// Standard refresh intervals (§II-B): 8K refreshes per 64 ms window.
const (
	// TREFI is the average refresh interval in a normal thermal state.
	TREFI = 7800 * sim.Nanosecond
	// TREFIHot is the halved interval above 85 C.
	TREFIHot = 3900 * sim.Nanosecond
	// RefreshWindow is the JEDEC retention window (64 ms / 8K commands).
	RefreshWindow = 64 * sim.Millisecond
	// RefreshCommandsPerWindow is the recommended command count per window.
	RefreshCommandsPerWindow = 8192
)

// Timing holds the DDR4 timing parameters relevant to this study. Values
// are absolute durations; cycle-denominated JEDEC parameters are converted
// at construction using the speed grade's tCK.
type Timing struct {
	Grade SpeedGrade

	TCK  sim.Duration // clock period
	TRCD sim.Duration // ACTIVATE to internal read/write
	TCL  sim.Duration // CAS latency (READ to first data)
	TCWL sim.Duration // CAS write latency
	TRP  sim.Duration // PRECHARGE to ACTIVATE
	TRAS sim.Duration // ACTIVATE to PRECHARGE (minimum row open)
	TRC  sim.Duration // ACTIVATE to ACTIVATE, same bank
	TBL  sim.Duration // burst of 8 on the data bus (4 clocks)
	TRFC sim.Duration // refresh cycle time (programmable; see below)
	TRRD sim.Duration // ACTIVATE to ACTIVATE, different bank
	TWR  sim.Duration // write recovery
	TRTP sim.Duration // read to precharge

	// TREFI is the average refresh interval the controller must honor
	// (programmable by the OS through iMC registers, per §II-B).
	TREFI sim.Duration
}

// NewTiming returns nominal timing for the grade with the JEDEC tRFC for an
// 8 Gb component and the normal 7.8 us tREFI. CL/RCD/RP use the mainstream
// bin for each grade.
func NewTiming(g SpeedGrade) Timing {
	tck := g.TCK()
	var clCycles int64
	switch g {
	case DDR4_1600:
		clCycles = 11
	case DDR4_1866:
		clCycles = 13
	case DDR4_2133:
		clCycles = 15
	case DDR4_2400:
		clCycles = 17
	case DDR4_2666:
		clCycles = 19
	default:
		clCycles = 22
	}
	cyc := func(n int64) sim.Duration { return sim.Duration(n) * tck }
	return Timing{
		Grade: g,
		TCK:   tck,
		TRCD:  cyc(clCycles),
		TCL:   cyc(clCycles),
		TCWL:  cyc(clCycles - 2),
		TRP:   cyc(clCycles),
		TRAS:  cyc(28),
		TRC:   cyc(28 + clCycles),
		TBL:   cyc(4), // BL8 = 8 beats = 4 clocks
		TRFC:  Density8Gb.StandardTRFC(),
		TRRD:  cyc(4),
		TWR:   15 * sim.Nanosecond,
		TRTP:  cyc(6),
		TREFI: TREFI,
	}
}

// BurstBytes is the number of bytes moved by one BL8 burst on a 64-bit bus.
const BurstBytes = 64

// MaxProgrammableAccessTime returns the largest tRCD+tCL a Skylake-class iMC
// can be programmed to: each parameter is a 5-bit register, so at most
// 31 cycles each (51.615 ns at DDR4-2400, per §III-A).
func (t Timing) MaxProgrammableAccessTime() sim.Duration {
	return sim.Duration(31) * t.TCK * 2
}

// Validate reports an error if the timing set is internally inconsistent.
func (t Timing) Validate() error {
	if t.TCK <= 0 {
		return fmt.Errorf("ddr4: non-positive tCK %v", t.TCK)
	}
	if t.TRFC <= 0 || t.TREFI <= 0 {
		return fmt.Errorf("ddr4: non-positive refresh timing tRFC=%v tREFI=%v", t.TRFC, t.TREFI)
	}
	if t.TRFC >= t.TREFI {
		return fmt.Errorf("ddr4: tRFC %v >= tREFI %v leaves no host bus time", t.TRFC, t.TREFI)
	}
	if t.TRAS < t.TRCD {
		return fmt.Errorf("ddr4: tRAS %v < tRCD %v", t.TRAS, t.TRCD)
	}
	return nil
}
