package dax

import "fmt"

// pte is one page-table entry of a mapping: the physical (DRAM) address
// currently backing a file page.
type pte struct {
	phys     int64
	valid    bool
	writable bool
}

// TLB is a small fully-associative translation buffer with FIFO replacement
// (functional model: hit/miss accounting; latency is part of the hostcost
// walk term).
type TLB struct {
	entries  map[int64]int64 // file page -> phys
	order    []int64
	capacity int
	hits     uint64
	misses   uint64
}

// NewTLB returns a TLB with the given entry count.
func NewTLB(entries int) *TLB {
	if entries < 1 {
		entries = 1
	}
	return &TLB{entries: make(map[int64]int64), capacity: entries}
}

// Lookup returns the cached translation.
func (t *TLB) Lookup(page int64) (int64, bool) {
	phys, ok := t.entries[page]
	if ok {
		t.hits++
	} else {
		t.misses++
	}
	return phys, ok
}

// Insert caches a translation, evicting FIFO when full.
func (t *TLB) Insert(page, phys int64) {
	if _, ok := t.entries[page]; !ok {
		if len(t.entries) >= t.capacity {
			victim := t.order[0]
			t.order = t.order[1:]
			delete(t.entries, victim)
		}
		t.order = append(t.order, page)
	}
	t.entries[page] = phys
}

// Invalidate drops one translation (PTE shootdown).
func (t *TLB) Invalidate(page int64) {
	if _, ok := t.entries[page]; ok {
		delete(t.entries, page)
		for i, p := range t.order {
			if p == page {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
	}
}

// Stats returns hit and miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// Mapping is an mmap of a whole DAX file into an address space: PTEs plus a
// TLB in front of them. Faults route through the filesystem to the driver's
// device_access (Fig. 6).
type Mapping struct {
	file *File
	tlb  *TLB
	ptes map[int64]pte

	faults      uint64
	pteHits     uint64
	writeUpgrds uint64
}

// Mmap maps the file. tlbEntries sizes the TLB (64 is a typical L1 DTLB).
func (f *File) Mmap(tlbEntries int) *Mapping {
	return &Mapping{
		file: f,
		tlb:  NewTLB(tlbEntries),
		ptes: make(map[int64]pte),
	}
}

// Stats reports fault-path counters.
func (m *Mapping) Stats() (faults, pteHits, tlbHits, tlbMisses uint64) {
	h, mi := m.tlb.Stats()
	return m.faults, m.pteHits, h, mi
}

// Translate resolves a byte offset in the file to the physical address
// backing it, faulting the page in if needed. done receives the physical
// address of the requested byte.
//
// Path (Fig. 6): TLB hit -> done immediately. TLB miss + valid PTE (page
// walk) -> refill TLB. Invalid PTE -> page fault -> filesystem block lookup
// -> driver device_access (cachefill et al.) -> install PTE -> done.
func (m *Mapping) Translate(off int64, write bool, done func(phys int64, err error)) {
	if off < 0 || off >= m.file.Size() {
		done(0, fmt.Errorf("dax: offset %d outside file %q (%d bytes)", off, m.file.name, m.file.Size()))
		return
	}
	page := off / PageSize
	rest := off % PageSize

	if phys, ok := m.tlb.Lookup(page); ok {
		if e := m.ptes[page]; e.valid && (!write || e.writable) {
			done(phys+rest, nil)
			return
		}
		// Stale TLB entry (invalidated PTE or write upgrade needed).
		m.tlb.Invalidate(page)
	}
	if e, ok := m.ptes[page]; ok && e.valid && (!write || e.writable) {
		m.pteHits++
		m.tlb.Insert(page, e.phys)
		done(e.phys+rest, nil)
		return
	}

	// Page fault.
	m.faults++
	devPage, err := m.file.devPageOf(page)
	if err != nil {
		done(0, err)
		return
	}
	if e, ok := m.ptes[page]; ok && e.valid && write && !e.writable {
		m.writeUpgrds++
		_ = e
	}
	m.file.fs.dev.Fault(devPage, write, func(physAddr int64) {
		m.ptes[page] = pte{phys: physAddr, valid: true, writable: write || m.ptes[page].writable}
		m.tlb.Insert(page, physAddr)
		done(physAddr+rest, nil)
	})
}
