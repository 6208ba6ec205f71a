package main

import (
	"fmt"
	"runtime"

	"nvdimmc/internal/numa"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
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
func runFabric(o planeOpts) {
	readPct, plan, member := o.plane(o.sockets)
	xbw, err := linkBandwidth(o.xbwGBps)
	usage(err)
	cfg := numa.Config{
		Sockets: o.sockets,
		Pool: pool.Config{
			Channels:        o.channels,
			DIMMsPerChannel: o.dimms,
			Interleave:      o.interleave,
			Member:          member,
			PrefillPages:    -1,
			Spares:          o.spares,
		},
		XLat:           sim.Duration(o.xlatNS * float64(sim.Nanosecond)),
		XBWBytesPerSec: xbw,
		Workers:        runtime.GOMAXPROCS(0),
		Seed:           7,
		ArmFaults:      plan.FabricHook(),
		LinkFaults:     plan.LinkFaults(),
	}
	f, err := numa.New(cfg)
	die(err)

	// Socket-affine tenants plus a fabric-wide roamer, the campaign load.
	ts := make([]openloop.Tenant, 0, o.sockets+1)
	for s := 0; s < o.sockets; s++ {
		ts = append(ts, openloop.Tenant{
			Name: fmt.Sprintf("s%d", s), Socket: s, Dist: openloop.Uniform,
			ReadPct: readPct, BlockSize: o.bs, Weight: 2,
			Footprint: f.Span(), Offset: int64(s) * f.Span(),
		})
	}
	ts = append(ts, openloop.Tenant{
		Name: "roam", Socket: 0, Dist: openloop.Uniform,
		ReadPct: readPct, BlockSize: o.bs, Weight: 1, Footprint: f.Capacity(),
	})
	gen, err := openloop.New(openloop.Config{
		Seed: 7, RatePerSec: o.rate, Tenants: ts,
	})
	die(err)
	die(pool.RunOpenLoop(f, gen, o.ops, nil))

	s := f.Stats()
	fmt.Printf("fabric: %d sockets x (%d channels x %d DIMMs +%d spare), interleave %d B, chunk %d KiB, span %d MB\n",
		o.sockets, o.channels, o.dimms, o.spares, o.interleave, f.Cfg.ChunkBytes>>10, f.Span()>>20)
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
	if plan != nil {
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
	die(f.CheckHealth())
	fmt.Println("health ok")
}
