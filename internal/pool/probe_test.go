package pool

import (
	"sort"
	"testing"

	"nvdimmc/internal/workload/openloop"
)

// TestDecoderInverseRoundTrip proves Inverse is the exact inverse of Lookup
// in both directions, for power-of-two and rotation (non-power-of-two)
// member counts, at page and huge-page interleave.
func TestDecoderInverseRoundTrip(t *testing.T) {
	for _, members := range []int{1, 2, 3, 4, 6, 8, 12} {
		for _, gran := range []int64{4096, 2 << 20} {
			d, err := NewDecoder(members, gran, 8*gran)
			if err != nil {
				t.Fatal(err)
			}
			// Pooled -> member -> pooled, including unaligned offsets.
			for off := int64(0); off < d.Capacity(); off += gran / 4 * 3 {
				m, mo := d.Lookup(off)
				if back := d.Inverse(m, mo); back != off {
					t.Fatalf("members=%d gran=%d: Inverse(Lookup(%d)) = %d", members, gran, off, back)
				}
			}
			// Member -> pooled -> member covers every (member, stripe) cell.
			for m := 0; m < members; m++ {
				for mo := int64(0); mo < 8*gran; mo += gran {
					off := d.Inverse(m, mo+17%gran)
					bm, bmo := d.Lookup(off)
					if bm != m || bmo != mo+17%gran {
						t.Fatalf("members=%d gran=%d: Lookup(Inverse(%d,%d)) = (%d,%d)",
							members, gran, m, mo, bm, bmo)
					}
				}
			}
		}
	}
}

func TestDecoderInversePanicsOutOfRange(t *testing.T) {
	d, err := NewDecoder(4, 4096, 16*4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		member int
		off    int64
	}{
		{"member too high", 4, 0},
		{"member negative", -1, 0},
		{"offset at capacity", 0, 16 * 4096},
		{"offset negative", 0, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			d.Inverse(c.member, c.off)
		}()
	}
}

// TestProbeSnapshot walks the probe through the states the fabric's socket
// lattice keys on: clean pool, quarantine absorbed by a spare (capacity
// held, DegradedPositions zero), then the spare lost too (a degraded
// position with no server).
func TestProbeSnapshot(t *testing.T) {
	p := newTestPool(t, 2, 1, 1, 4096, func(c *Config) { c.Spares = 1 })
	pr := p.Probe()
	if pr.Suspects != 0 || pr.Quarantined != 0 || pr.DegradedPositions != 0 || pr.BreakersOpen != 0 {
		t.Fatalf("fresh pool probe not clean: %+v", pr)
	}
	if pr.SparesFree != 1 {
		t.Fatalf("SparesFree = %d, want 1", pr.SparesFree)
	}

	p.sup.Condemn(0, "probe-test")
	pr = p.Probe()
	if pr.Quarantined != 1 || pr.SparesFree != 0 {
		t.Fatalf("after quarantine: %+v", pr)
	}
	if pr.DegradedPositions != 0 {
		t.Fatalf("spare failover should keep positions served: %+v", pr)
	}

	// Lose the spare now serving logical 0: no free spare remains, so the
	// position goes degraded — the strongest socket-evacuation signal.
	p.sup.Condemn(p.route[0], "probe-test")
	pr = p.Probe()
	if pr.DegradedPositions != 1 {
		t.Fatalf("DegradedPositions = %d, want 1: %+v", pr.DegradedPositions, pr)
	}
}

// TestResidentPooled checks the pooled resident-set snapshot: offsets are
// ascending, page-aligned, inside pooled capacity, and every one decodes
// back to a page its serving member really holds.
func TestResidentPooled(t *testing.T) {
	p := newTestPool(t, 2, 1, 1, 4096)
	if _, err := p.Submit(openloop.Request{Off: 0, Len: 4096, Write: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(openloop.Request{Off: 3 * 4096, Len: 4096, Write: true}); err != nil {
		t.Fatal(err)
	}
	if err := Drain(p); err != nil {
		t.Fatal(err)
	}

	res := p.ResidentPooled()
	if len(res) == 0 {
		t.Fatal("no resident pages after prefill + writes")
	}
	if !sort.SliceIsSorted(res, func(i, j int) bool { return res[i] < res[j] }) {
		t.Fatal("resident offsets not ascending")
	}
	want := map[int64]bool{}
	for l := 0; l < p.Dec.Members(); l++ {
		phys := p.route[l]
		for _, pg := range p.members[phys].sys.Driver.Resident() {
			mo := pg.LPN * PageSize
			if mo+PageSize > p.Dec.memberCap {
				continue
			}
			want[p.Dec.Inverse(l, mo)] = true
		}
	}
	for _, off := range res {
		if off < 0 || off >= p.Capacity() || off%PageSize != 0 {
			t.Fatalf("resident offset %d outside aligned capacity %d", off, p.Capacity())
		}
		if !want[off] {
			t.Fatalf("resident offset %d not held by its routed member", off)
		}
	}
	if len(res) != len(want) {
		t.Fatalf("snapshot has %d pages, members hold %d", len(res), len(want))
	}
}
