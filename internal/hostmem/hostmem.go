// Package hostmem models the layout the nvdc driver imposes on the NVDIMM-C
// DRAM range that the Linux memmap=nn$ss kernel parameter reserves from
// normal use (§IV-B, Fig. 5): the CP area in the first physical page, a
// metadata area holding the DRAM-to-NAND mappings, and the remaining space
// carved into 4 KB cache slots.
package hostmem

import (
	"fmt"
)

// PageSize is the x86-64 base page size, also the cache slot size.
const PageSize = 4096

// Layout carves the reserved DRAM region into the Fig. 5 areas. All offsets
// are relative to the region base (which is also DRAM device address 0 in
// the single-DIMM models).
type Layout struct {
	// Size is the total reserved region size.
	Size int64
	// CPOffset/CPSize locate the communication-protocol area (first page).
	CPOffset, CPSize int64
	// MetaOffset/MetaSize locate the mapping metadata area.
	MetaOffset, MetaSize int64
	// SlotsOffset is where cache slots begin.
	SlotsOffset int64
	// NumSlots is the number of 4 KB cache slots.
	NumSlots int
}

// NewLayout lays out a reserved region of the given size. metaSize rounds up
// to a whole page; slotFraction (0,1] bounds how much of the remainder
// becomes cache slots (the PoC dedicates 15 GB of its 16 GB module to slots,
// keeping headroom for driver structures — slotFraction ≈ 0.9375).
func NewLayout(size, metaSize int64, slotFraction float64) (Layout, error) {
	if size < 3*PageSize {
		return Layout{}, fmt.Errorf("hostmem: region %d too small", size)
	}
	if metaSize < PageSize {
		metaSize = PageSize
	}
	metaSize = (metaSize + PageSize - 1) &^ (PageSize - 1)
	if slotFraction <= 0 || slotFraction > 1 {
		return Layout{}, fmt.Errorf("hostmem: slot fraction %v out of (0,1]", slotFraction)
	}
	l := Layout{
		Size:       size,
		CPOffset:   0,
		CPSize:     PageSize,
		MetaOffset: PageSize,
		MetaSize:   metaSize,
	}
	l.SlotsOffset = l.MetaOffset + l.MetaSize
	avail := size - l.SlotsOffset
	if avail < PageSize {
		return Layout{}, fmt.Errorf("hostmem: no room for slots (size %d, metadata %d)", size, metaSize)
	}
	l.NumSlots = int(float64(avail/PageSize) * slotFraction)
	if l.NumSlots < 1 {
		l.NumSlots = 1
	}
	return l, nil
}

// SlotAddr returns the region-relative byte address of slot i.
func (l Layout) SlotAddr(i int) int64 {
	return l.SlotsOffset + int64(i)*PageSize
}

// SlotOf returns which slot contains region-relative address a, or -1.
func (l Layout) SlotOf(a int64) int {
	if a < l.SlotsOffset {
		return -1
	}
	i := int((a - l.SlotsOffset) / PageSize)
	if i >= l.NumSlots {
		return -1
	}
	return i
}

// Validate checks the areas are disjoint and in-bounds.
func (l Layout) Validate() error {
	if l.CPOffset != 0 || l.CPSize != PageSize {
		return fmt.Errorf("hostmem: CP area must be the first page")
	}
	if l.MetaOffset < l.CPOffset+l.CPSize {
		return fmt.Errorf("hostmem: metadata overlaps CP area")
	}
	if l.SlotsOffset < l.MetaOffset+l.MetaSize {
		return fmt.Errorf("hostmem: slots overlap metadata")
	}
	if l.SlotAddr(l.NumSlots) > l.Size {
		return fmt.Errorf("hostmem: slots run past region end")
	}
	return nil
}
