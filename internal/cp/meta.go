package cp

import (
	"encoding/binary"
	"fmt"
)

// MetaEntry describes one DRAM cache slot in the metadata area's
// slot-indexed mapping table (Fig. 5, §IV-C). On power failure the firmware
// reads this table directly — ignoring the tRFC serialization rule — to
// flush valid dirty DRAM cache pages into Z-NAND (§V-C), so the format is
// part of the driver/firmware contract.
//
// Entries are packed to 4 bytes so the paper's 16 MB metadata area covers
// the ~3.9 Mi slots of a 15 GB cache: bit 31 = valid, bit 30 = dirty,
// bits 29:0 = NAND logical page (30 bits of 4 KB pages = 4 TB of media).
type MetaEntry struct {
	NANDPage uint32 // 30 bits used
	Dirty    bool
	Valid    bool
}

const (
	metaMagic      = uint32(0x4E564443) // "NVDC"
	metaHeaderSize = 16
	metaEntrySize  = 4

	validBit = uint32(1) << 31
	dirtyBit = uint32(1) << 30
	pageMask = dirtyBit - 1
)

// MaxMetaEntries returns how many slot entries fit in a metadata area of n
// bytes.
func MaxMetaEntries(n int64) int {
	if n < metaHeaderSize {
		return 0
	}
	return int((n - metaHeaderSize) / metaEntrySize)
}

// MetaSizeFor returns the metadata area size needed for n slots.
func MetaSizeFor(n int) int64 {
	return metaHeaderSize + int64(n)*metaEntrySize
}

// EncodeMeta serializes the slot-indexed table into buf.
func EncodeMeta(buf []byte, entries []MetaEntry) error {
	need := MetaSizeFor(len(entries))
	if int64(len(buf)) < need {
		return fmt.Errorf("cp: metadata buffer %d < %d", len(buf), need)
	}
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(entries)))
	binary.LittleEndian.PutUint64(buf[8:], MetaChecksum(entries))
	off := metaHeaderSize
	for _, e := range entries {
		binary.LittleEndian.PutUint32(buf[off:], e.pack())
		off += metaEntrySize
	}
	return nil
}

func (e MetaEntry) pack() uint32 {
	w := e.NANDPage & pageMask
	if e.Dirty {
		w |= dirtyBit
	}
	if e.Valid {
		w |= validBit
	}
	return w
}

func unpack(w uint32) MetaEntry {
	return MetaEntry{
		NANDPage: w & pageMask,
		Dirty:    w&dirtyBit != 0,
		Valid:    w&validBit != 0,
	}
}

// EncodeMetaEntry writes just slot i's entry bytes (an in-place update the
// driver performs on each mapping change; the header must be rewritten too
// for the checksum — see EncodeMetaHeader).
func EncodeMetaEntry(buf []byte, i int, e MetaEntry) error {
	off := metaHeaderSize + int64(i)*metaEntrySize
	if off+metaEntrySize > int64(len(buf)) {
		return fmt.Errorf("cp: entry %d outside metadata area", i)
	}
	binary.LittleEndian.PutUint32(buf[off:], e.pack())
	return nil
}

// EncodeMetaHeader rewrites the header of an n-entry table whose checksum
// is sum. A writer that changes slot i from old to e keeps sum current in
// O(1): sum += MetaTerm(i, e) - MetaTerm(i, old).
func EncodeMetaHeader(buf []byte, n int, sum uint64) error {
	if len(buf) < metaHeaderSize {
		return fmt.Errorf("cp: metadata buffer too small for header")
	}
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(n))
	binary.LittleEndian.PutUint64(buf[8:], sum)
	return nil
}

// DecodeMeta parses a metadata area. It verifies the magic and checksum so a
// torn or never-written table is detected rather than replayed.
func DecodeMeta(buf []byte) ([]MetaEntry, error) {
	if len(buf) < metaHeaderSize {
		return nil, fmt.Errorf("cp: metadata area %d bytes too small", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != metaMagic {
		return nil, fmt.Errorf("cp: metadata magic missing")
	}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	want := binary.LittleEndian.Uint64(buf[8:])
	if MetaSizeFor(n) > int64(len(buf)) {
		return nil, fmt.Errorf("cp: metadata claims %d entries beyond area", n)
	}
	entries := make([]MetaEntry, n)
	off := metaHeaderSize
	for i := range entries {
		entries[i] = unpack(binary.LittleEndian.Uint32(buf[off:]))
		off += metaEntrySize
	}
	if MetaChecksum(entries) != want {
		return nil, fmt.Errorf("cp: metadata checksum mismatch (torn write?)")
	}
	return entries, nil
}

// MetaChecksum is the header checksum of a full table: the wrapping sum of
// every slot's MetaTerm. DecodeMeta recomputes it; writers keep it current
// term by term instead (see EncodeMetaHeader).
func MetaChecksum(entries []MetaEntry) uint64 {
	var sum uint64
	for i, e := range entries {
		sum += MetaTerm(i, e)
	}
	return sum
}

// MetaTerm is slot i's contribution to the table checksum: the slot index
// and the packed entry, mixed by the splitmix64 finaliser. The finaliser is
// a bijection, so a torn update of one slot — its entry written without the
// header, or the header without the entry — always leaves the stored and
// the recomputed sums apart by MetaTerm(i, new) - MetaTerm(i, old) != 0.
// Keying the term by position makes two slots that swap values change the
// sum too (except with probability ~2^-64).
func MetaTerm(i int, e MetaEntry) uint64 {
	z := uint64(i)<<32 | uint64(e.pack())
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
