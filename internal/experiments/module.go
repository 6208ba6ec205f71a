package experiments

import (
	"nvdimmc/internal/core"
	"nvdimmc/internal/pmem"
	"nvdimmc/internal/workload/fio"
)

// The paper testbed's sizes that the scaled targets cost their host path
// at: the scaled devices hold megabytes, but the TLB/page-walk cost of
// each op is that of the full-size file the paper's fio job maps.
const (
	// CachedWalk is the NVDC-Cached walk footprint: the host maps the
	// module's 15 GB of cache slots.
	CachedWalk = 15 << 30
	// MediaWalk is the NVDC-Uncached walk footprint: a file spread over
	// 120 GB of the media.
	MediaWalk = 120 << 30
	// BaselineFile is the baseline job's file: 120 GB of the 128 GB
	// /dev/pmem0.
	BaselineFile = 120 << 30
)

// Module is one of the three fio targets Figs. 8–10, 12 and 13 compare.
type Module int

const (
	// Baseline is /dev/pmem0, emulated pmem on plain DRAM; its job spans a
	// BaselineFile.
	Baseline Module = iota
	// Cached is NVDC-Cached: the job's file, the layout's CachedPages, is
	// resident in the DRAM cache, written there by a sequential prefill.
	Cached
	// Uncached is NVDC-Uncached: the job spans the whole device, every
	// page of which is on the prefilled media, so nearly every op misses.
	Uncached
)

// series names module m's run of pattern pat in the figures' rows:
// "baseline-read", "cached-write" and so on.
func (m Module) series(pat fio.Pattern) string {
	name := [...]string{"baseline", "cached", "uncached"}[m]
	if pat.IsWrite() {
		return name + "-write"
	}
	return name + "-read"
}

// Bench is one built fio target: the device, the file a job spans, and
// the NVDIMM-C system behind it (nil for the Baseline).
type Bench struct {
	Target fio.Target
	File   int64
	Sys    *core.System
}

// NewBench builds module m: the Baseline ignores cfg, Cached and Uncached
// build an NVDIMM-C system from it and lay down their precondition. On an
// error the bench is unusable.
func NewBench(m Module, cfg core.Config) (*Bench, error) {
	if m == Baseline {
		return &Bench{Target: pmem.New(), File: BaselineFile}, nil
	}
	s, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	tgt := s.NewFioTarget()
	b := &Bench{Target: tgt, Sys: s}
	if m == Cached {
		b.File = int64(s.Layout.CachedPages()) * PageSize
		err = fio.Prefill(tgt, b.File, PageSize)
		tgt.SetWalkFootprint(CachedWalk)
	} else {
		b.File = tgt.Capacity()
		err = s.PrefillMedia()
		tgt.SetWalkFootprint(MediaWalk)
	}
	return b, err
}

// Run runs job over the bench's file, unless the job sets its own, and
// then audits the system.
func (b *Bench) Run(job fio.Job) (fio.Result, error) {
	if job.FileSize == 0 {
		job.FileSize = b.File
	}
	r, err := fio.Run(b.Target, job)
	if err == nil && b.Sys != nil {
		err = b.Sys.CheckHealth()
	}
	return r, err
}
