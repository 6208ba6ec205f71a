package experiments

import (
	"nvdimmc/internal/core"
	"nvdimmc/internal/metrics"
	"nvdimmc/internal/report"
	"nvdimmc/internal/sim"
)

// Fig7Result holds the file-copy experiment (Fig. 7): sequential write
// bandwidth over progress while copying a large file from a SATA SSD onto
// the device. The paper copies 20 GB onto a 16 GB-cache module: ~518 MB/s
// while free slots last (SSD-bound; the PM863 reads ~520 MB/s sequential),
// collapsing to ~68 MB/s once every write needs a writeback+cachefill pair.
type Fig7Result struct {
	// Series is bandwidth (MB/s) per progress bucket.
	Series metrics.Series
	// CachedMBps is the mean bandwidth of the free-slot phase, UncachedMBps
	// of the post-exhaustion phase.
	CachedMBps, UncachedMBps float64
	// KneeFraction is where the collapse happened, as a fraction of the
	// copy (paper: at the ~15/20 = 0.75 mark).
	KneeFraction float64
}

// ssdMBps is the PM863's sequential read speed (Table I).
const ssdMBps = 520.0

// Fig7 runs the scaled copy: file size = 1.25x the cache (20 GB : 16 GB).
func Fig7(o Options) (Fig7Result, error) {
	var res Fig7Result
	s, err := core.NewSystem(nvdcConfig(o.pick(512, 256)))
	if err != nil {
		return res, err
	}
	// File = 1.25x the DRAM-cache module size, like 20 GB vs 16 GB.
	fileBytes := s.DRAM.Capacity() * 5 / 4
	if fileBytes > s.Driver.CapacityPages()*PageSize {
		fileBytes = s.Driver.CapacityPages() * PageSize
	}
	totalPages := int(fileBytes / PageSize)

	// The copy loop: read a chunk from the SSD (520 MB/s), write it to the
	// device, repeat. cp-style copy is synchronous chunk by chunk.
	const chunkPages = 16
	chunkBytes := int64(chunkPages * PageSize)
	ssdChunkTime := sim.Duration(float64(chunkBytes) / (ssdMBps * 1e6) * float64(sim.Second))

	tgt := s.NewFioTarget()
	tgt.Prepare(fileBytes)
	tgt.SetWalkFootprint(20 << 30)

	buckets := 40
	pagesPerBucket := totalPages / buckets
	if pagesPerBucket < chunkPages {
		pagesPerBucket = chunkPages
	}

	page := 0
	bucketStart := s.K.Now()
	bucketPages := 0
	copyDone := false
	var step func()
	step = func() {
		if page >= totalPages {
			copyDone = true
			return
		}
		n := chunkPages
		if page+n > totalPages {
			n = totalPages - page
		}
		off := int64(page) * PageSize
		page += n
		// SSD read of the chunk, then the device write.
		s.K.Schedule(ssdChunkTime, func() {
			tgt.Do(off, n*PageSize, true, func() {
				bucketPages += n
				if bucketPages >= pagesPerBucket {
					el := s.K.Now().Sub(bucketStart).Seconds()
					mbps := float64(bucketPages) * PageSize / 1e6 / el
					res.Series.Add(float64(page)/float64(totalPages), mbps)
					bucketStart = s.K.Now()
					bucketPages = 0
				}
				step()
			})
		})
	}
	step()
	if err := s.RunUntil(func() bool { return copyDone }, 600*sim.Second); err != nil {
		return res, err
	}
	if err := s.CheckHealth(); err != nil {
		return res, err
	}

	// Classify phases around the slot-exhaustion knee.
	knee := len(res.Series.Values)
	for i, v := range res.Series.Values {
		if v < ssdMBps/2 {
			knee = i
			break
		}
	}
	if knee < len(res.Series.Values) {
		res.KneeFraction = res.Series.X[knee]
	} else {
		res.KneeFraction = 1
	}
	var pre, post metrics.Series
	for i := range res.Series.Values {
		if i < knee {
			pre.Add(res.Series.X[i], res.Series.Values[i])
		} else {
			post.Add(res.Series.X[i], res.Series.Values[i])
		}
	}
	res.CachedMBps = pre.Mean()
	res.UncachedMBps = post.Mean()

	report.Line(o.out(), "  bandwidth over copy progress (MB/s)", res.Series.X, res.Series.Values, 8, "MB/s")
	printRows(o, "Fig. 7: 20GB-equivalent file copy", []Row{
		{Name: "free-slot (SSD-bound) bandwidth", Paper: 518, Measured: res.CachedMBps, Unit: "MB/s"},
		{Name: "cache-exhausted bandwidth", Paper: 68, Measured: res.UncachedMBps, Unit: "MB/s"},
		{Name: "knee position (fraction of copy)", Paper: 0.75, Measured: res.KneeFraction, Unit: "frac"},
	})
	return res, nil
}
