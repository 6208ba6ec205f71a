package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"nvdimmc"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/numa"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// fabricOpts carries the fabric-mode CLI knobs into runFabric.
type fabricOpts struct {
	sockets         int
	channels, dimms int
	interleave      int64
	rate            float64
	rw              string
	bs, ops         int
	spares          int
	xlatNS          float64
	xbwGBps         float64
	sfaults         string
}

// sfaultSpec is one parsed -sfaults entry: hit socket <socket> with <kind>
// at <onset> (a fault-site occurrence for kill/slow, a fabric epoch for
// link).
type sfaultSpec struct {
	socket int
	kind   string
	onset  int
}

// parseSocketFaults parses the -sfaults flag:
// "socket:kind:onset[,socket:kind:onset...]" with kind kill | slow | link.
func parseSocketFaults(spec string, sockets int) []sfaultSpec {
	var out []sfaultSpec
	for _, part := range strings.Split(spec, ",") {
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) != 3 {
			fmt.Fprintf(os.Stderr, "nvdimmc-sim: bad -sfaults entry %q (want socket:kind:onset)\n", part)
			os.Exit(2)
		}
		socket, err1 := strconv.Atoi(f[0])
		onset, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || socket < 0 || socket >= sockets || onset < 0 {
			fmt.Fprintf(os.Stderr, "nvdimmc-sim: bad -sfaults entry %q: socket in [0,%d) and onset >= 0 required\n",
				part, sockets)
			os.Exit(2)
		}
		if onset == 0 {
			onset = 1
		}
		switch f[1] {
		case "kill", "slow", "link":
		default:
			fmt.Fprintf(os.Stderr, "nvdimmc-sim: unknown socket fault kind %q (want kill | slow | link)\n", f[1])
			os.Exit(2)
		}
		out = append(out, sfaultSpec{socket: socket, kind: f[1], onset: onset})
	}
	return out
}

// runFabric drives the multi-socket NUMA fabric (see internal/numa): N
// pooled sockets behind one request plane, a socket-affine open-loop load
// plus a fabric-wide roamer, and an end-of-run socket state table.
func runFabric(o fabricOpts) {
	readPct := 0
	switch o.rw {
	case "randread":
	case "randwrite":
		readPct = -1
	default:
		fmt.Fprintf(os.Stderr, "nvdimmc-sim: fabric mode supports -rw randread|randwrite, not %q\n", o.rw)
		os.Exit(2)
	}
	specs := []sfaultSpec(nil)
	member := nvdimmc.DefaultConfig()
	if o.sfaults != "" {
		specs = parseSocketFaults(o.sfaults, o.sockets)
		// Same shrink as pooled -faults: fault sites live on NAND and the CP
		// transport, so run a small module near capacity with deferred
		// program acks surfaced (see runPool).
		member.CacheBytes = 1 << 20
		member.NAND.BlocksPerDie = 32
		member.NAND.PagesPerBlock = 16
		member.NVMC.AckAfterProgram = true
		member.Audit = false
	}
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
		XBWBytesPerSec: int64(o.xbwGBps * float64(1<<30)),
		Workers:        runtime.GOMAXPROCS(0),
		Seed:           7,
	}
	for _, sp := range specs {
		if sp.kind == "link" {
			cfg.LinkFaults = append(cfg.LinkFaults, numa.LinkFault{
				Epoch: sp.onset, Socket: sp.socket, LatFactor: 20, BWDivide: 16,
			})
		}
	}
	if specs != nil {
		cfg.ArmFaults = func(socket, member int, g *fault.Registry) {
			for _, sp := range specs {
				if sp.socket != socket {
					continue
				}
				switch sp.kind {
				case "kill":
					g.OnOccurrence(fault.NANDProgramFail, uint64(sp.onset)).Times(1 << 30)
				case "slow":
					// x12 keeps programs under the driver's CP ack deadline:
					// latency tails, not transport errors.
					g.Prob(fault.NANDDieTimeout, 0.25).Param(12)
				}
			}
		}
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
	die(f.RunOpenLoop(gen, o.ops))

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
	if o.sfaults != "" {
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
