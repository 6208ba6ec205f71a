// Interleaved address decoder: the socket-scale analogue of the iMC's
// channel-interleave hash. A flat pooled address space is striped across N
// members (channel x DIMM positions) at a configurable granularity — 4 KB
// matches the management page so every page lands whole on one member; 2 MB
// matches the huge-page/Optane-style coarse interleave whose hot-spot
// pathology the Yang et al. Optane study measures.
//
// Within every group of N consecutive stripes the member assignment is a
// permutation, so the map pooled-stripe -> (member, member-stripe) is a
// bijection and member-stripe is simply the group index: capacity divides
// exactly and footprints of G groups cover member offsets [0, G*gran) on
// every member. The permutation is keyed by an XOR fold of the group index —
// the classic XOR channel hash that keeps power-of-two strides from camping
// on one channel. For power-of-two member counts the key XORs into the
// stripe position (a permutation because x^k is); for other counts (6
// channels is the common server population) XOR is not closed over the
// range, so the key rotates the position instead — still a permutation, same
// decorrelation.
package pool

import "fmt"

// Decoder maps pooled byte offsets onto (member, member offset).
type Decoder struct {
	members    int
	gran       int64
	memberCap  int64 // bytes addressable per member
	pow2       bool
	groupCount int64
}

// Extent is one contiguous run of an access served by one child: a pooled
// access's run on a member, or a fabric access's run on one socket (which
// leaves Member unused and keeps Off fabric-wide).
type Extent struct {
	Member int
	Off    int64
	Len    int
}

// NewDecoder builds a decoder. memberCap must be a multiple of gran so every
// member contributes whole stripes.
func NewDecoder(members int, gran, memberCap int64) (*Decoder, error) {
	if members < 1 {
		return nil, fmt.Errorf("pool: %d members", members)
	}
	if gran <= 0 || memberCap <= 0 || memberCap%gran != 0 {
		return nil, fmt.Errorf("pool: member capacity %d not a multiple of interleave %d",
			memberCap, gran)
	}
	return &Decoder{
		members:    members,
		gran:       gran,
		memberCap:  memberCap,
		pow2:       members&(members-1) == 0,
		groupCount: memberCap / gran,
	}, nil
}

// Members returns the member count.
func (d *Decoder) Members() int { return d.members }

// Capacity returns the pooled address-space size.
func (d *Decoder) Capacity() int64 { return int64(d.members) * d.memberCap }

// fold compresses a group index into a permutation key. XOR-folding the
// halves repeatedly mixes high group bits into the low bits the selector
// uses, so long sequential walks and large power-of-two strides both spread.
func fold(g int64) int64 {
	u := uint64(g)
	u ^= u >> 33
	u ^= u >> 17
	u ^= u >> 7
	u ^= u >> 3
	return int64(u)
}

// Lookup maps one pooled offset to its member and member-local offset.
// Offsets at or beyond Capacity panic: callers own admission of addresses.
func (d *Decoder) Lookup(off int64) (member int, memberOff int64) {
	if off < 0 || off >= d.Capacity() {
		panic(fmt.Sprintf("pool: offset %d outside pooled capacity %d", off, d.Capacity()))
	}
	stripe := off / d.gran
	group := stripe / int64(d.members)
	pos := stripe % int64(d.members)
	key := fold(group)
	if d.pow2 {
		member = int((pos ^ key) & int64(d.members-1))
	} else {
		member = int((pos + key%int64(d.members)) % int64(d.members))
	}
	return member, group*d.gran + off%d.gran
}

// Inverse maps one (member, member-local offset) pair back to the pooled
// offset Lookup would have decoded it from — the exact bijection inverse,
// used by the resident-set snapshot the NUMA fabric's evacuation engine
// replays (a member knows its pages only by member-local address). Inputs
// outside the member set or the member capacity panic, like Lookup.
func (d *Decoder) Inverse(member int, memberOff int64) int64 {
	if member < 0 || member >= d.members {
		panic(fmt.Sprintf("pool: member %d outside %d-member decoder", member, d.members))
	}
	if memberOff < 0 || memberOff >= d.memberCap {
		panic(fmt.Sprintf("pool: member offset %d outside member capacity %d", memberOff, d.memberCap))
	}
	group := memberOff / d.gran
	key := fold(group)
	n := int64(d.members)
	var pos int64
	if d.pow2 {
		// Forward: member = (pos ^ key) & (n-1) with pos < n, so XOR with the
		// masked key undoes it exactly.
		pos = (int64(member) ^ key) & (n - 1)
	} else {
		// Forward: member = (pos + key%n) % n — undo the rotation, keeping the
		// result in [0, n) for any sign of key%n.
		pos = ((int64(member)-key%n)%n + n) % n
	}
	return (group*n+pos)*d.gran + memberOff%d.gran
}

// FragmentsInto splits the pooled access [off, off+n) at stripe boundaries
// into per-member extents, in pooled-address order, appended to buf
// (reusing its capacity); it returns the extended slice. Per-epoch hot
// paths that copy the extents out before the next decode pass their scratch
// buffer here.
func (d *Decoder) FragmentsInto(buf []Extent, off int64, n int) []Extent {
	out := buf[:0]
	for n > 0 {
		m, mo := d.Lookup(off)
		span := int(d.gran - off%d.gran)
		if span > n {
			span = n
		}
		out = append(out, Extent{Member: m, Off: mo, Len: span})
		off += int64(span)
		n -= span
	}
	return out
}
