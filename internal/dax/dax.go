// Package dax models the Direct Access path of §II-A: a DAX-aware
// filesystem (the XFS-dax stand-in) over a byte-addressable block device,
// plus the memory-mapping machinery an application actually touches —
// extents, page tables, a TLB, and the page-fault path that ends in the
// driver's device_access entry point (Fig. 6).
//
// The traditional mmap() path would bounce 4 KB block I/O through the page
// cache; DAX instead installs PTEs that point straight at the device's
// memory, so a fault happens only on first touch (or after invalidation)
// and every later access is a TLB/PTE hit.
package dax

import (
	"fmt"
	"sort"
)

// PageSize is the fault granularity.
const PageSize = 4096

// Device is the block device under the filesystem. Fault is the
// device_access entry point: it makes the device page resident and reports
// the physical (DRAM) address serving it.
type Device interface {
	CapacityPages() int64
	Fault(lpn int64, write bool, done func(physAddr int64))
	// Trim releases a device page (file deletion).
	Trim(lpn int64)
}

// extent is a run of contiguous device pages backing a file range.
type extent struct {
	fileOff int64 // in pages
	devPage int64
	pages   int64
}

// File is one DAX file.
type File struct {
	fs      *FS
	name    string
	pages   int64
	extents []extent
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Pages returns the file size in pages.
func (f *File) Pages() int64 { return f.pages }

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.pages * PageSize }

// devPageOf translates a file page to its device page.
func (f *File) devPageOf(filePage int64) (int64, error) {
	if filePage < 0 || filePage >= f.pages {
		return 0, fmt.Errorf("dax: page %d beyond file %q (%d pages)", filePage, f.name, f.pages)
	}
	// Extents are sorted by fileOff.
	i := sort.Search(len(f.extents), func(i int) bool {
		return f.extents[i].fileOff+f.extents[i].pages > filePage
	})
	e := f.extents[i]
	return e.devPage + (filePage - e.fileOff), nil
}

// FS is a mounted DAX filesystem.
type FS struct {
	dev   Device
	files map[string]*File
	// Free device-page runs, kept sorted by start.
	free []extent
}

// Mount formats and mounts a filesystem over the whole device.
func Mount(dev Device) *FS {
	return &FS{
		dev:   dev,
		files: make(map[string]*File),
		free:  []extent{{devPage: 0, pages: dev.CapacityPages()}},
	}
}

// FreePages reports unallocated device pages.
func (fs *FS) FreePages() int64 {
	var n int64
	for _, e := range fs.free {
		n += e.pages
	}
	return n
}

// allocate carves pages device pages from the free runs (first fit,
// possibly as several extents).
func (fs *FS) allocate(pages int64, fileOff int64) ([]extent, error) {
	if pages > fs.FreePages() {
		return nil, fmt.Errorf("dax: need %d pages, %d free", pages, fs.FreePages())
	}
	var got []extent
	for pages > 0 {
		run := &fs.free[0]
		n := run.pages
		if n > pages {
			n = pages
		}
		got = append(got, extent{fileOff: fileOff, devPage: run.devPage, pages: n})
		run.devPage += n
		run.pages -= n
		if run.pages == 0 {
			fs.free = fs.free[1:]
		}
		fileOff += n
		pages -= n
	}
	return got, nil
}

// release returns extents to the free pool (coalescing adjacent runs) and
// trims the device.
func (fs *FS) release(exts []extent) {
	for _, e := range exts {
		for p := int64(0); p < e.pages; p++ {
			fs.dev.Trim(e.devPage + p)
		}
		fs.free = append(fs.free, extent{devPage: e.devPage, pages: e.pages})
	}
	sort.Slice(fs.free, func(i, j int) bool { return fs.free[i].devPage < fs.free[j].devPage })
	// Coalesce.
	out := fs.free[:0]
	for _, e := range fs.free {
		if len(out) > 0 && out[len(out)-1].devPage+out[len(out)-1].pages == e.devPage {
			out[len(out)-1].pages += e.pages
			continue
		}
		out = append(out, e)
	}
	fs.free = out
}

// Create makes a file of the given size (in bytes, rounded up to pages).
func (fs *FS) Create(name string, size int64) (*File, error) {
	if _, exists := fs.files[name]; exists {
		return nil, fmt.Errorf("dax: file %q exists", name)
	}
	pages := (size + PageSize - 1) / PageSize
	exts, err := fs.allocate(pages, 0)
	if err != nil {
		return nil, err
	}
	f := &File{fs: fs, name: name, pages: pages, extents: exts}
	fs.files[name] = f
	return f, nil
}

// Remove deletes a file, trimming its device pages.
func (fs *FS) Remove(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("dax: no file %q", name)
	}
	fs.release(f.extents)
	delete(fs.files, name)
	f.extents = nil
	f.pages = 0
	return nil
}
