// Command nvdimmc-sim runs one fio-style job against the simulated NVDIMM-C
// module or the pmem baseline and prints the result, exposing the same knobs
// the paper sweeps.
//
// Usage:
//
//	nvdimmc-sim -target nvdc -rw randread -bs 4096 -numjobs 1 -ops 1000 [-uncached]
//	nvdimmc-sim -channels 6 -dimms 2 -interleave 4096 -rate 2e6 -rw randread -ops 3000
//
// Passing -channels or -dimms above 1 switches to the pooled socket: N
// independent NVDIMM-C modules behind an interleaved decoder and an
// open-loop front-end scheduler (see internal/pool). -rate sets the
// open-loop arrival rate in ops per simulated second (0 = saturating).
// -spares adds hot-spare modules, and -faults arms a fault plan of
// target:kind:onset entries (DESIGN.md §6.1) on pool members m<i>:
//
//	nvdimmc-sim -channels 3 -spares 1 -faults m0:program:1 -rw randwrite -ops 400
//	nvdimmc-sim -channels 2 -faults "m0:mediaread:5,m1:dietimeout:0" -ops 900
//
// The pooled front-end's overload controls are exposed directly: -admission
// picks the shedding policy (block | shed-newest | shed-oldest |
// deadline-aware), -deadline stamps every request with a completion budget
// in microseconds, and -pendingcap bounds the per-channel admission-held
// backlog. Any of them switches to pooled mode:
//
//	nvdimmc-sim -channels 3 -rate 2e6 -admission deadline-aware -deadline 2000 -ops 3000
//
// -qos replaces the single open-loop tenant with a multi-tenant mix carrying
// per-tenant QoS contracts. Each comma-separated entry is one tenant,
// dist:weight:qosweight:limit:burst:slo_us — arrival distribution (zipf |
// uni), relative arrival weight, DRR service weight, token-bucket rate in
// ops/sec (0 = unpoliced), bucket burst, and p99 SLO in microseconds (0 =
// untracked). -isolation arms enforcement (buckets + deficit-round-robin
// dispatch); off, the contracts are tracked but not enforced. The run ends
// with a per-tenant table:
//
//	nvdimmc-sim -channels 3 -rate 5e5 -qos "zipf:8:1:40000:32:0,uni:1:1:0:0:1500" -ops 3000
//
// -sockets above 1 composes N pooled sockets into the multi-socket NUMA
// fabric (see internal/numa): one flat request plane, a METICULOUS-style
// interconnect (-xlat one-way nanoseconds, -xbw GB/s per directed link),
// socket-level health with evacuation and cross-socket failover, and an
// end-of-run socket state table. A fabric's -faults targets are sockets
// s<j> and their members s<j>.m<i>: s1:program:1 kills socket 1 (it
// evacuates, chunks re-home, pages migrate), s0:link:8 degrades socket 0's
// links at fabric epoch 8:
//
//	nvdimmc-sim -sockets 3 -channels 2 -rate 1.5e6 -rw randwrite -ops 800 -faults s1:program:1
//	nvdimmc-sim -sockets 2 -xlat 900 -xbw 4 -rate 1e6 -ops 500 -faults s0:link:8
//
// The flags pick one mode — the single module, a pool, or a fabric — and
// a flag set on the command line that the mode does not read is refused:
// the command exits 2 and names it (-rate or -xlat without a pooled-socket
// flag, -qos or -admission with -sockets above 1, -uncached or -numjobs on
// a plane) instead of running as if it were absent. The plane modes fill
// one experiments.Point, the value every campaign point runs from.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"nvdimmc"
	"nvdimmc/internal/core"
	"nvdimmc/internal/experiments"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/fio"
	"nvdimmc/internal/workload/openloop"
)

func main() {
	o, pt, err := parseFlags(flag.CommandLine, os.Args[1:])
	usage(err)
	switch o.mode {
	case "fabric":
		runFabric(o, pt)
	case "pool":
		runPool(o, pt)
	default:
		runModule(o, pt)
	}
}

// opts are the flag values a Point does not hold as they are, and the
// mode the flags pick.
type opts struct {
	mode, target, rw, policy, faults, admission, qs string
	jobs                                            int
	deadlineUS, xlatNS, xbwGBps                     float64
	uncached, audit, isolation                      bool
}

// modeFlags are the flags each mode reads. A flag set on the command line
// that its mode does not read is refused rather than silently dropped;
// -sockets picks the mode, so every mode reads it.
var modeFlags = map[string][]string{
	"module": {"target", "rw", "bs", "numjobs", "ops", "uncached", "policy", "audit", "sockets"},
	"pool": {"rw", "bs", "ops", "channels", "dimms", "interleave", "rate", "spares", "faults",
		"admission", "deadline", "pendingcap", "qos", "isolation", "sockets"},
	"fabric": {"rw", "bs", "ops", "channels", "dimms", "interleave", "rate", "spares", "faults",
		"sockets", "xlat", "xbw"},
}

// parseFlags parses args on fs into a Point and picks the mode: -sockets
// above 1 a NUMA fabric, any pooled-socket flag a pool, else the single
// module. It refuses a set flag the mode does not read and, in the plane
// modes, finishes the Point and checks it with Point.Check.
func parseFlags(fs *flag.FlagSet, args []string) (opts, experiments.Point, error) {
	var o opts
	pt := experiments.Point{
		Pool: pool.Config{Member: nvdimmc.DefaultConfig(), Workers: runtime.GOMAXPROCS(0), Seed: 7, PrefillPages: -1},
		Load: openloop.Config{Seed: 7},
	}
	fs.StringVar(&o.target, "target", "nvdc", "device: nvdc | pmem")
	fs.StringVar(&o.rw, "rw", "randread", "pattern: read | write | randread | randwrite")
	fs.IntVar(&pt.BlockSize, "bs", 4096, "block size in bytes")
	fs.IntVar(&o.jobs, "numjobs", 1, "thread count")
	fs.IntVar(&pt.Reqs, "ops", 1000, "operations per thread")
	fs.BoolVar(&o.uncached, "uncached", false, "nvdc: force misses (footprint >> cache, media prefilled)")
	fs.StringVar(&o.policy, "policy", "lrc", "nvdc slot replacement: lrc | lru | clock")
	fs.BoolVar(&o.audit, "audit", true, "nvdc: run the protocol-invariant auditor on the trace stream")
	fs.IntVar(&pt.Pool.Channels, "channels", 1, "pooled socket: memory channel count (>1 enables the interleaved pool)")
	fs.IntVar(&pt.Pool.DIMMsPerChannel, "dimms", 1, "pooled socket: DIMMs per channel")
	fs.Int64Var(&pt.Pool.Interleave, "interleave", 4096, "pooled socket: interleave granularity in bytes (e.g. 4096, 2097152)")
	fs.Float64Var(&pt.Load.RatePerSec, "rate", 0, "pooled socket: open-loop arrival rate in ops per simulated second (0 = saturating)")
	fs.IntVar(&pt.Pool.Spares, "spares", 0, "pooled socket: hot-spare modules for quarantine failover")
	fs.StringVar(&o.faults, "faults", "", "pooled socket or NUMA fabric: fault plan, comma-separated target:kind:onset (target: m<i> on a pool, s<j> or s<j>.m<i> on a fabric; kind: program | mediaread | dietimeout | ackdrop | slow | link; onset: site occurrence or link epoch, 0 = 1)")
	fs.StringVar(&o.admission, "admission", "block", "pooled socket: admission policy: block | shed-newest | shed-oldest | deadline-aware")
	fs.Float64Var(&o.deadlineUS, "deadline", 0, "pooled socket: per-request completion budget in microseconds (0 = none)")
	fs.IntVar(&pt.Pool.PendingCap, "pendingcap", 0, "pooled socket: per-channel admission-held backlog cap in fragments (0 = default)")
	fs.StringVar(&o.qs, "qos", "", "pooled socket: comma-separated dist:weight:qosweight:limit:burst:slo_us tenant contracts (dist: zipf | uni)")
	fs.BoolVar(&o.isolation, "isolation", true, "pooled socket: with -qos, enforce the contracts (token buckets + DRR dispatch) rather than only tracking them")
	fs.IntVar(&pt.Fabric.Sockets, "sockets", 1, "NUMA fabric: socket count (>1 composes per-socket pools behind one request plane)")
	fs.Float64Var(&o.xlatNS, "xlat", 400, "NUMA fabric: cross-socket one-way link latency in nanoseconds")
	fs.Float64Var(&o.xbwGBps, "xbw", 8, "NUMA fabric: per-directed-link interconnect bandwidth in GB/s")
	if err := fs.Parse(args); err != nil {
		return o, pt, err
	}

	o.mode = "module"
	switch p := pt.Pool; {
	case pt.Fabric.Sockets > 1:
		o.mode = "fabric"
	case p.Channels > 1 || p.DIMMsPerChannel > 1 || p.Spares > 0 || p.PendingCap > 0 || o.faults != "" ||
		o.admission != "block" || o.deadlineUS > 0 || o.qs != "":
		o.mode = "pool"
	}
	var refused []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(modeFlags[o.mode], f.Name) {
			refused = append(refused, "-"+f.Name)
		}
	})
	if refused != nil {
		return o, pt, fmt.Errorf("%s: not read in %s mode", strings.Join(refused, ", "), o.mode)
	}
	if o.mode == "module" {
		return o, pt, nil
	}
	err := o.finish(&pt)
	if err == nil {
		err = pt.Check()
	}
	return o, pt, err
}

// finish fills in the plane modes' Point what the flags do not hold as
// they are: the paper-scale member (or, with a fault plan, the member the
// plan needs; see core.FaultedConfig) and one uniform tenant of -rw
// traffic or the -qos tenants, split evenly. A pool's load covers its
// cached footprint, or with a plan its whole capacity, so misses map
// pages onto media; a fabric's is the socket-affine mix over whole spans.
func (o opts) finish(pt *experiments.Point) error {
	readPct, err := readPercent(o.rw)
	if err != nil {
		return err
	}
	pt.Label, pt.Cached = o.mode, o.mode == "pool" && o.faults == ""
	pt.Load.Deadline = sim.Duration(o.deadlineUS * float64(sim.Microsecond))
	pt.Load.Tenants = []openloop.Tenant{{Name: "cli", Dist: openloop.Uniform, ReadPct: readPct}}
	if pt.Pool.Admission, err = pool.ParseAdmissionPolicy(o.admission); err != nil {
		return err
	}
	if o.faults != "" {
		if pt.Plan, err = fault.ParsePlan(o.faults); err != nil {
			return err
		}
		pt.Pool.Member = core.FaultedConfig()
	}
	switch {
	case o.mode == "fabric":
		pt.Fabric.XLat = sim.Duration(o.xlatNS * float64(sim.Nanosecond))
		if pt.Fabric.XBWBytesPerSec, err = linkBandwidth(o.xbwGBps); err != nil {
			return err
		}
	case pt.Plan == nil:
		pt.Pool.WalkFootprint = 15 << 30
		fallthrough
	default:
		pt.Fabric.Sockets = 0 // -sockets 1: a lone pool
	}
	if o.qs != "" {
		if pt.Load.Tenants, err = parseQoS(o.qs, readPct, pt.BlockSize); err != nil {
			return err
		}
		pt.QoS = experiments.QoSTrack
		if o.isolation {
			pt.QoS = experiments.QoSIsolate
		}
	}
	return nil
}

// runModule runs one fio-style job against a single module or the pmem
// baseline.
func runModule(o opts, pt experiments.Point) {
	var pat fio.Pattern
	switch o.rw {
	case "read":
		pat = fio.SeqRead
	case "write":
		pat = fio.SeqWrite
	case "randread":
		pat = fio.RandRead
	case "randwrite":
		pat = fio.RandWrite
	default:
		usage(fmt.Errorf("unknown pattern %q", o.rw))
	}

	var tgt fio.Target
	var sys *core.System
	switch o.target {
	case "pmem":
		d, err := nvdimmc.NewBaseline(nvdimmc.BaselineConfig())
		die(err)
		tgt = d
	case "nvdc":
		cfg := nvdimmc.DefaultConfig()
		switch o.policy {
		case "lru":
			cfg.Driver.Policy = nvdimmc.PolicyLRU
		case "clock":
			cfg.Driver.Policy = nvdimmc.PolicyClock
		}
		if o.uncached {
			cfg.NAND.BlocksPerDie = 512
		}
		cfg.Audit = o.audit
		s, err := nvdimmc.New(cfg)
		die(err)
		sys = s
		ft := s.NewFioTarget()
		if o.uncached {
			die(s.PrefillMedia())
			ft.SetWalkFootprint(120 << 30)
		} else {
			pages := s.Layout.NumSlots * 9 / 10
			die(fio.Prefill(ft, int64(pages)*core.PageSize, core.PageSize))
			ft.SetWalkFootprint(15 << 30)
		}
		tgt = ft
	default:
		usage(fmt.Errorf("unknown target %q", o.target))
	}

	job := fio.Job{
		Pattern: pat, BlockSize: pt.BlockSize, NumJobs: o.jobs,
		OpsPerThread: pt.Reqs, WarmupOps: pt.Reqs / 10, Align: 4096,
	}
	if o.target == "nvdc" && !o.uncached {
		job.FileSize = int64(sys.Layout.NumSlots*9/10) * core.PageSize
	}
	res, err := fio.Run(tgt, job)
	die(err)
	fmt.Println(res)
	fmt.Printf("latency: p50=%v p95=%v p99=%v p999=%v max=%v\n",
		res.Latency.Percentile(50), res.Latency.Percentile(95),
		res.Latency.Percentile(99), res.Latency.Percentile(99.9),
		res.Latency.Max())
	if sys != nil {
		st := sys.Driver.Stats()
		fmt.Printf("driver: hits=%d misses=%d evictions=%d writebacks=%d cachefills=%d fastfills=%d\n",
			st.Hits, st.Misses, st.Evictions, st.Writebacks, st.Cachefills, st.FastFills)
		nv := sys.NVMC.Stats()
		fmt.Printf("nvmc: windows=%d used=%d polls=%d windows/cmd=%.1f\n",
			nv.WindowsSeen, nv.WindowsUsed, nv.Polls, nv.WindowsPerCmd)
		if sys.Auditor != nil {
			fmt.Printf("audit: events=%d violations=%d\n",
				sys.Auditor.Events(), sys.Auditor.ViolationCount())
		}
		die(sys.CheckHealth())
	}
}

// readPercent maps -rw onto an open-loop tenant's ReadPct; the pooled and
// fabric modes run random patterns only.
func readPercent(rw string) (int, error) {
	switch rw {
	case "randread":
		return 0, nil // openloop default: read-only
	case "randwrite":
		return -1, nil
	}
	return 0, fmt.Errorf("-rw %q: the pooled and fabric modes support randread | randwrite", rw)
}

// parseQoS parses the -qos flag: one tenant per comma-separated
// dist:weight:qosweight:limit:burst:slo_us entry. The Point lays their
// footprints.
func parseQoS(spec string, readPct, bs int) ([]openloop.Tenant, error) {
	var out []openloop.Tenant
	for i, part := range strings.Split(spec, ",") {
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) != 6 {
			return nil, fmt.Errorf("bad -qos entry %q (want dist:weight:qosweight:limit:burst:slo_us)", part)
		}
		var dist openloop.Dist
		switch f[0] {
		case "zipf":
			dist = openloop.Zipfian
		case "uni":
			dist = openloop.Uniform
		default:
			return nil, fmt.Errorf("unknown -qos distribution %q (want zipf | uni)", f[0])
		}
		weight, err1 := strconv.ParseFloat(f[1], 64)
		qosWeight, err2 := strconv.ParseFloat(f[2], 64)
		limit, err3 := strconv.ParseFloat(f[3], 64)
		burst, err4 := strconv.Atoi(f[4])
		sloUS, err5 := strconv.ParseFloat(f[5], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			return nil, fmt.Errorf("bad -qos entry %q: numeric fields required", part)
		}
		out = append(out, openloop.Tenant{
			Name: fmt.Sprintf("t%d", i), Dist: dist, Weight: weight, ReadPct: readPct,
			BlockSize: bs, QoSWeight: qosWeight, LimitPerSec: limit, Burst: burst,
			SLOP99: sim.Duration(sloUS * float64(sim.Microsecond)),
		})
	}
	return out, nil
}

// runPool drives the interleaved multi-channel pool with a single-tenant
// open-loop stream and prints the pooled and per-channel stats. With -spares
// or -faults it also prints the end-of-run member state table.
func runPool(o opts, pt experiments.Point) {
	pl, _, err := pt.Run(nil)
	die(err)
	p := pl.(*pool.Pool)
	s := p.Stats()
	fmt.Printf("pool: %d channels x %d DIMMs (+%d spare), interleave %d B, capacity %d MB, admission %v\n",
		pt.Pool.Channels, pt.Pool.DIMMsPerChannel, pt.Pool.Spares, pt.Pool.Interleave, p.Capacity()>>20, pt.Pool.Admission)
	fmt.Printf("requests=%d bw=%.0f MB/s epochs=%d held-peak=%d shed=%d expired=%d late=%d\n",
		s.Completed, s.Meter.BandwidthMBps(), s.Epochs, s.HeldPeak,
		s.Shed, s.Expired, s.CompletedLate)
	fmt.Printf("latency: p50=%v p95=%v p99=%v p999=%v max=%v\n",
		s.Lat.Percentile(50), s.Lat.Percentile(95),
		s.Lat.Percentile(99), s.Lat.Percentile(99.9), s.Lat.Max())
	for i, ch := range s.PerChannel {
		fmt.Printf("ch%d: reqs=%d bytes=%d p99=%v heldHW=%d queueHW=%d svc-ewma=%v breaker=%s\n",
			i, ch.Lat.Count(), ch.Meter.Bytes(), ch.Lat.Percentile(99),
			ch.HeldHW, ch.QueueHW, ch.ServiceEWMA, ch.Breaker)
	}
	if len(s.PerTenant) > 0 {
		fmt.Printf("qos: isolation=%v throttled=%d\n", o.isolation, s.Throttled)
		for _, ts := range s.PerTenant {
			slo, verdict := "-", "-"
			if ts.SLOP99 > 0 {
				slo = fmt.Sprint(ts.SLOP99)
				if ts.SLOViolated() {
					verdict = "VIOLATED"
				} else {
					verdict = "met"
				}
			}
			fmt.Printf("  %-4s w=%g bucket=%g/s burst=%d done=%d thr=%d shed=%d expired=%d failed=%d p99=%v p999=%v slo=%s %s\n",
				ts.Name, ts.Weight, ts.RatePerSec, ts.Burst, ts.Completed, ts.Throttled,
				ts.Shed, ts.Expired, ts.Failed, ts.Lat.Percentile(99), ts.Lat.Percentile(99.9),
				slo, verdict)
		}
	}
	if pt.Pool.Spares > 0 || pt.Plan != nil {
		fmt.Printf("faults: failed=%d retries=%d trips=%d suspects=%d quarantined=%d evacuated=%d spares-used=%d rebuild-pages=%d post-quarantine=%d\n",
			s.Failed, s.Ctr.Get("frags-retried"), s.Ctr.Get("breaker-trip"),
			s.Ctr.Get("member-suspect"), s.Quarantined, s.Evacuated,
			s.SparesUsed, s.Ctr.Get("rebuild-pages"), s.PostQuarantineDispatches)
		fmt.Printf("writes: in=%d acked=%d failed=%d lost=%d\n",
			s.WritesIn, s.WritesAcked, s.WritesFailed, s.WritesLost())
		fmt.Println("members:")
		for i, m := range s.PerMember {
			// InService/Logical are only tracked for spares that took over a
			// position; a data member serves its own logical slot until it is
			// quarantined or evacuated.
			role, svc := "data", "out-of-service"
			if m.Spare {
				role = "spare"
				if m.InService {
					svc = fmt.Sprintf("serving ch%d", m.Logical)
				} else {
					svc = "standby"
				}
			} else if m.State == pool.StateUp || m.State == pool.StateSuspect {
				svc = fmt.Sprintf("serving ch%d", i)
			}
			reason := ""
			if m.Reason != "" {
				reason = "  reason=" + m.Reason
			}
			fmt.Printf("  m%d %-5s %-11v mode=%-9v derr=%-4d ferr=%-3d %s%s\n",
				i, role, m.State, m.Mode, m.DriverErrors, m.FragErrors, svc, reason)
		}
	}
	fmt.Println("health ok")
}

// usage exits 2 on a bad flag value.
func usage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvdimmc-sim:", err)
		os.Exit(2)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvdimmc-sim:", err)
		os.Exit(1)
	}
}
