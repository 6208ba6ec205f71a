package dax

import (
	"testing"
	"testing/quick"
)

// fakeDev is a synchronous Device for unit tests: device page p is "backed"
// at phys 0x10000 + p*PageSize; faults and trims are counted.
type fakeDev struct {
	capacity int64
	faults   map[int64]int
	trims    map[int64]int
}

func newFakeDev(pages int64) *fakeDev {
	return &fakeDev{capacity: pages, faults: map[int64]int{}, trims: map[int64]int{}}
}

func (d *fakeDev) CapacityPages() int64 { return d.capacity }
func (d *fakeDev) Fault(lpn int64, write bool, done func(int64)) {
	d.faults[lpn]++
	done(0x10000 + lpn*PageSize)
}
func (d *fakeDev) Trim(lpn int64) { d.trims[lpn]++ }

func TestCreateOpenRemove(t *testing.T) {
	dev := newFakeDev(256)
	fs := Mount(dev)
	f, err := fs.Create("db.dat", 10*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pages() != 10 {
		t.Fatalf("pages = %d", f.Pages())
	}
	if fs.FreePages() != 246 {
		t.Fatalf("free = %d", fs.FreePages())
	}
	if fs.files["db.dat"] != f {
		t.Fatal("created file not listed")
	}
	if _, err := fs.Create("db.dat", PageSize); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if err := fs.Remove("db.dat"); err != nil {
		t.Fatal(err)
	}
	if fs.FreePages() != 256 {
		t.Fatalf("free after remove = %d", fs.FreePages())
	}
	if len(dev.trims) != 10 {
		t.Fatalf("trimmed %d pages, want 10", len(dev.trims))
	}
	if _, ok := fs.files["db.dat"]; ok {
		t.Fatal("removed file still listed")
	}
}

func TestSizeRoundsToPages(t *testing.T) {
	fs := Mount(newFakeDev(16))
	f, err := fs.Create("x", 100) // sub-page
	if err != nil {
		t.Fatal(err)
	}
	if f.Pages() != 1 || f.Size() != PageSize {
		t.Fatalf("pages=%d size=%d", f.Pages(), f.Size())
	}
}

func TestAllocationExhaustion(t *testing.T) {
	fs := Mount(newFakeDev(8))
	if _, err := fs.Create("big", 9*PageSize); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if fs.FreePages() != 8 {
		t.Fatal("failed create leaked pages")
	}
}

func TestExtendAndFragmentation(t *testing.T) {
	fs := Mount(newFakeDev(32))
	a, _ := fs.Create("a", 8*PageSize)
	if _, err := fs.Create("b", 8*PageSize); err != nil {
		t.Fatal(err)
	}
	// Removing a leaves a hole; c spans the hole + tail (two extents).
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	_ = a
	c, err := fs.Create("c", 20*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.extents) < 2 {
		t.Fatalf("expected a fragmented file, got %d extent(s)", len(c.extents))
	}
	// Every page must still translate to a unique device page.
	seen := map[int64]bool{}
	for p := int64(0); p < c.Pages(); p++ {
		dp, err := c.devPageOf(p)
		if err != nil {
			t.Fatal(err)
		}
		if seen[dp] {
			t.Fatalf("device page %d mapped twice", dp)
		}
		seen[dp] = true
	}
}

func TestTranslateFaultsOncePerPage(t *testing.T) {
	dev := newFakeDev(64)
	fs := Mount(dev)
	f, _ := fs.Create("f", 4*PageSize)
	m := f.Mmap(16)
	for round := 0; round < 3; round++ {
		for p := int64(0); p < 4; p++ {
			done := false
			m.Translate(p*PageSize+100, false, func(phys int64, err error) {
				if err != nil {
					t.Fatal(err)
				}
				dp, _ := f.devPageOf(p)
				if phys != 0x10000+dp*PageSize+100 {
					t.Fatalf("phys = %#x", phys)
				}
				done = true
			})
			if !done {
				t.Fatal("translate did not complete")
			}
		}
	}
	faults, _, tlbHits, _ := m.Stats()
	if faults != 4 {
		t.Fatalf("faults = %d, want 4 (once per page)", faults)
	}
	if tlbHits != 8 {
		t.Fatalf("tlb hits = %d, want 8 (rounds 2 and 3)", tlbHits)
	}
}

func TestTranslateOutOfRange(t *testing.T) {
	fs := Mount(newFakeDev(8))
	f, _ := fs.Create("f", PageSize)
	m := f.Mmap(4)
	gotErr := false
	m.Translate(2*PageSize, false, func(_ int64, err error) { gotErr = err != nil })
	if !gotErr {
		t.Fatal("out-of-file translate accepted")
	}
}

func TestTLBEvictionFIFO(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, 100)
	tlb.Insert(2, 200)
	tlb.Insert(3, 300) // evicts 1
	if _, ok := tlb.Lookup(1); ok {
		t.Fatal("FIFO victim still present")
	}
	if v, ok := tlb.Lookup(3); !ok || v != 300 {
		t.Fatal("fresh entry lost")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(1, 100)
	tlb.Invalidate(1)
	if _, ok := tlb.Lookup(1); ok {
		t.Fatal("invalidated entry still present")
	}
	tlb.Invalidate(99) // no-op must not panic
}

// Property: any sequence of create/remove keeps free-page accounting exact
// and never double-allocates a device page.
func TestAllocatorProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		dev := newFakeDev(128)
		fs := Mount(dev)
		names := []string{}
		for i, op := range ops {
			if op%3 == 0 && len(names) > 0 {
				fs.Remove(names[0])
				names = names[1:]
				continue
			}
			name := fname(i)
			pages := int64(op%7 + 1)
			if _, err := fs.Create(name, pages*PageSize); err == nil {
				names = append(names, name)
			}
		}
		// No page may belong to two live files.
		seen := map[int64]bool{}
		var used int64
		for _, name := range names {
			file, ok := fs.files[name]
			if !ok {
				return false
			}
			for p := int64(0); p < file.Pages(); p++ {
				dp, err := file.devPageOf(p)
				if err != nil || seen[dp] {
					return false
				}
				seen[dp] = true
				used++
			}
		}
		return fs.FreePages()+used == 128
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func fname(i int) string {
	return "f" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}
