package main

import (
	"fmt"

	"nvdimmc/internal/experiments"
	"nvdimmc/internal/numa"
)

// linkBandwidth converts -xbw, in GB/s per directed link, to bytes per
// second. The fabric reads 0 B/s as its 8 GB/s default, so a value that
// converts below 1 B/s is an error, as is one past int64 or not finite.
func linkBandwidth(gbps float64) (int64, error) {
	bps := gbps * (1 << 30)
	if !(bps >= 1 && bps < 1<<63) { // NaN fails both comparisons
		return 0, fmt.Errorf("-xbw %g: want a finite link bandwidth of at least 1 B/s", gbps)
	}
	return int64(bps), nil
}

// runFabric drives the multi-socket NUMA fabric (see internal/numa): N
// pooled sockets behind one request plane, a socket-affine open-loop load
// plus a fabric-wide roamer, and an end-of-run socket state table.
func runFabric(o opts, pt experiments.Point) {
	pl, _, err := pt.Run(nil)
	die(err)
	f := pl.(*numa.Fabric)
	s := f.Stats()
	fmt.Printf("fabric: %d sockets x (%d channels x %d DIMMs +%d spare), interleave %d B, chunk %d KiB, span %d MB\n",
		pt.Fabric.Sockets, pt.Pool.Channels, pt.Pool.DIMMsPerChannel, pt.Pool.Spares, pt.Pool.Interleave, f.Cfg.ChunkBytes>>10, f.Span()>>20)
	fmt.Printf("xconn: lat=%v bw=%.1f GB/s\n", f.Cfg.XLat, o.xbwGBps)
	fmt.Printf("requests=%d completed=%d failed=%d shed=%d expired=%d epochs=%d remote=%d\n",
		s.Submitted, s.Completed, s.Failed, s.Shed, s.Expired, s.Epochs, s.RemoteRequests)
	fmt.Printf("latency: p50=%v p95=%v p99=%v max=%v\n",
		s.Lat.Percentile(50), s.Lat.Percentile(95), s.Lat.Percentile(99), s.Lat.Max())
	if s.LatRemote.Count() > 0 {
		fmt.Printf("remote:  p50=%v p99=%v max=%v\n",
			s.LatRemote.Percentile(50), s.LatRemote.Percentile(99), s.LatRemote.Max())
	}
	if s.LatMigrate.Count() > 0 {
		fmt.Printf("during-migration: p50=%v p99=%v\n",
			s.LatMigrate.Percentile(50), s.LatMigrate.Percentile(99))
	}
	if pt.Plan != nil {
		fmt.Printf("faults: retries=%d rehomed=%d mig-pages=%d mig-miss=%d post-evac=%d writes-lost=%d\n",
			s.Ctr.Get("fab-retry-promoted"), s.ChunksRehomed, s.MigPages, s.MigReadMiss,
			s.PostEvacSubmissions, s.WritesLost())
	}
	fmt.Println("sockets:")
	for si, ss := range s.PerSocket {
		reason := ""
		if ss.Reason != "" {
			reason = "  reason=" + ss.Reason
		}
		fmt.Printf("  s%d %-10v reqs=%-6d failed=%-4d quarantined=%d spares-used=%d p99=%v%s\n",
			si, ss.State, ss.Pool.Completed, ss.Pool.Failed,
			ss.Pool.Quarantined, ss.Pool.SparesUsed, ss.Pool.Lat.Percentile(99), reason)
	}
	fmt.Println("health ok")
}
