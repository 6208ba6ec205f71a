package pool

import (
	"fmt"
	"testing"
)

// TestDecoderBijection: for every supported member count (including the
// non-power-of-two 3 and 6) and both interleave granularities, the map
// pooled-stripe -> (member, member-stripe) must be a bijection: every member
// receives every member-stripe exactly once.
func TestDecoderBijection(t *testing.T) {
	for _, members := range []int{1, 2, 3, 4, 6, 8} {
		for _, gran := range []int64{4096, 2 << 20} {
			const groups = 64
			memberCap := gran * groups
			d, err := NewDecoder(members, gran, memberCap)
			if err != nil {
				t.Fatal(err)
			}
			if d.Capacity() != int64(members)*memberCap {
				t.Fatalf("members=%d capacity = %d", members, d.Capacity())
			}
			seen := make(map[string]int64)
			for off := int64(0); off < d.Capacity(); off += gran {
				m, mo := d.Lookup(off)
				if m < 0 || m >= members {
					t.Fatalf("members=%d off=%d: member %d out of range", members, off, m)
				}
				if mo < 0 || mo >= memberCap || mo%gran != 0 {
					t.Fatalf("members=%d off=%d: member offset %d invalid", members, off, mo)
				}
				key := fmt.Sprintf("%d:%d", m, mo)
				if prev, dup := seen[key]; dup {
					t.Fatalf("members=%d gran=%d: offsets %d and %d both map to %s",
						members, gran, prev, off, key)
				}
				seen[key] = off
			}
			// members*groups stripes onto members*groups slots with no
			// duplicate is onto: the map is a bijection.
			if len(seen) != members*groups {
				t.Fatalf("members=%d: %d distinct targets, want %d", members, len(seen), members*groups)
			}
		}
	}
}

// TestDecoderGroupCoverage: a pooled footprint of G whole stripe-groups must
// cover member offsets [0, G*gran) on every member exactly — the property
// the pool relies on to keep prefilled (cache-resident) footprints
// cache-resident after interleaving.
func TestDecoderGroupCoverage(t *testing.T) {
	const gran, groups = 4096, 16
	for _, members := range []int{2, 6} {
		d, err := NewDecoder(members, gran, gran*64)
		if err != nil {
			t.Fatal(err)
		}
		covered := make(map[int]map[int64]bool)
		footprint := int64(members) * gran * groups
		for off := int64(0); off < footprint; off += gran {
			m, mo := d.Lookup(off)
			if covered[m] == nil {
				covered[m] = make(map[int64]bool)
			}
			covered[m][mo] = true
		}
		for m := 0; m < members; m++ {
			if len(covered[m]) != groups {
				t.Fatalf("members=%d: member %d got %d stripes, want %d",
					members, m, len(covered[m]), groups)
			}
			for mo := range covered[m] {
				if mo >= gran*groups {
					t.Fatalf("members=%d: member %d offset %d beyond footprint share %d",
						members, m, mo, gran*groups)
				}
			}
		}
	}
}

// TestDecoderXORSpreading: the XOR/rotation group key must decorrelate
// member-count-strided walks — the access pattern that camps on a single
// channel under plain modulo interleave.
func TestDecoderXORSpreading(t *testing.T) {
	for _, members := range []int{4, 6, 8} {
		d, err := NewDecoder(members, 4096, 4096*1024)
		if err != nil {
			t.Fatal(err)
		}
		// Visit position 0 of each group: plain modulo would put every
		// access on member 0.
		hits := make([]int, members)
		stride := int64(members) * 4096
		n := 0
		for off := int64(0); off < d.Capacity(); off += stride {
			m, _ := d.Lookup(off)
			hits[m]++
			n++
		}
		for m, h := range hits {
			if h == 0 {
				t.Fatalf("members=%d: strided walk never hit member %d: %v", members, m, hits)
			}
			if h > n/2 {
				t.Fatalf("members=%d: strided walk camped on member %d (%d/%d): %v",
					members, m, h, n, hits)
			}
		}
	}
}

// TestDecoderFragments: accesses split at stripe boundaries into in-order
// extents whose lengths sum to the request.
func TestDecoderFragments(t *testing.T) {
	d, err := NewDecoder(4, 4096, 4096*64)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		off   int64
		n     int
		frags int
	}{
		{0, 4096, 1},          // one whole stripe
		{512, 1024, 1},        // sub-stripe
		{0, 16384, 4},         // four whole stripes
		{1000, 8192, 3},       // unaligned span straddling two boundaries
		{4096*7 + 100, 64, 1}, // small op deep in the space
	}
	for _, c := range cases {
		fr := d.FragmentsInto(nil, c.off, c.n)
		if len(fr) != c.frags {
			t.Fatalf("[%d,+%d): %d fragments, want %d: %+v", c.off, c.n, len(fr), c.frags, fr)
		}
		sum := 0
		for i, f := range fr {
			sum += f.Len
			if f.Len <= 0 || f.Off < 0 {
				t.Fatalf("[%d,+%d) fragment %d degenerate: %+v", c.off, c.n, i, f)
			}
			wantM, wantO := d.Lookup(c.off + int64(sum-f.Len))
			if f.Member != wantM || f.Off != wantO {
				t.Fatalf("[%d,+%d) fragment %d = %+v, want member %d off %d",
					c.off, c.n, i, f, wantM, wantO)
			}
		}
		if sum != c.n {
			t.Fatalf("[%d,+%d): fragment lengths sum to %d", c.off, c.n, sum)
		}
	}
}

func TestDecoderValidation(t *testing.T) {
	if _, err := NewDecoder(0, 4096, 4096); err == nil {
		t.Fatal("zero members accepted")
	}
	if _, err := NewDecoder(2, 4096, 6000); err == nil {
		t.Fatal("capacity not a multiple of granularity accepted")
	}
	if _, err := NewDecoder(2, 0, 4096); err == nil {
		t.Fatal("zero granularity accepted")
	}
	d, _ := NewDecoder(2, 4096, 4096*4)
	for _, bad := range []int64{-1, d.Capacity(), d.Capacity() + 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Lookup(%d) did not panic", bad)
				}
			}()
			d.Lookup(bad)
		}()
	}
}
