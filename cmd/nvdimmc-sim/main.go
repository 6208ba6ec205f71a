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
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"nvdimmc"
	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/fio"
	"nvdimmc/internal/workload/openloop"
)

func main() {
	target := flag.String("target", "nvdc", "device: nvdc | pmem")
	var o planeOpts
	flag.StringVar(&o.rw, "rw", "randread", "pattern: read | write | randread | randwrite")
	flag.IntVar(&o.bs, "bs", 4096, "block size in bytes")
	jobs := flag.Int("numjobs", 1, "thread count")
	flag.IntVar(&o.ops, "ops", 1000, "operations per thread")
	uncached := flag.Bool("uncached", false, "nvdc: force misses (footprint >> cache, media prefilled)")
	policy := flag.String("policy", "lrc", "nvdc slot replacement: lrc | lru | clock")
	audit := flag.Bool("audit", true, "nvdc: run the protocol-invariant auditor on the trace stream")
	flag.IntVar(&o.channels, "channels", 1, "pooled socket: memory channel count (>1 enables the interleaved pool)")
	flag.IntVar(&o.dimms, "dimms", 1, "pooled socket: DIMMs per channel")
	flag.Int64Var(&o.interleave, "interleave", 4096, "pooled socket: interleave granularity in bytes (e.g. 4096, 2097152)")
	flag.Float64Var(&o.rate, "rate", 0, "pooled socket: open-loop arrival rate in ops per simulated second (0 = saturating)")
	flag.IntVar(&o.spares, "spares", 0, "pooled socket: hot-spare modules for quarantine failover")
	flag.StringVar(&o.faults, "faults", "", "pooled socket or NUMA fabric: fault plan, comma-separated target:kind:onset (target: m<i> on a pool, s<j> or s<j>.m<i> on a fabric; kind: program | mediaread | dietimeout | ackdrop | slow | link; onset: site occurrence or link epoch, 0 = 1)")
	flag.StringVar(&o.admission, "admission", "block", "pooled socket: admission policy: block | shed-newest | shed-oldest | deadline-aware")
	flag.Float64Var(&o.deadlineUS, "deadline", 0, "pooled socket: per-request completion budget in microseconds (0 = none)")
	flag.IntVar(&o.pendingCap, "pendingcap", 0, "pooled socket: per-channel admission-held backlog cap in fragments (0 = default)")
	flag.StringVar(&o.qos, "qos", "", "pooled socket: comma-separated dist:weight:qosweight:limit:burst:slo_us tenant contracts (dist: zipf | uni)")
	flag.BoolVar(&o.isolation, "isolation", true, "pooled socket: with -qos, enforce the contracts (token buckets + DRR dispatch) rather than only tracking them")
	flag.IntVar(&o.sockets, "sockets", 1, "NUMA fabric: socket count (>1 composes per-socket pools behind one request plane)")
	flag.Float64Var(&o.xlatNS, "xlat", 400, "NUMA fabric: cross-socket one-way link latency in nanoseconds")
	flag.Float64Var(&o.xbwGBps, "xbw", 8, "NUMA fabric: per-directed-link interconnect bandwidth in GB/s")
	flag.Parse()

	pooled := o.channels > 1 || o.dimms > 1 || o.spares > 0 || o.faults != "" ||
		o.admission != "block" || o.deadlineUS > 0 || o.pendingCap > 0 || o.qos != ""
	usage(checkPlaneFlags(o.bs, o.pendingCap, pooled || o.sockets > 1))

	if o.sockets > 1 {
		runFabric(o)
		return
	}

	if pooled {
		runPool(o)
		return
	}

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
	switch *target {
	case "pmem":
		d, err := nvdimmc.NewBaseline(nvdimmc.BaselineConfig())
		die(err)
		tgt = d
	case "nvdc":
		cfg := nvdimmc.DefaultConfig()
		switch *policy {
		case "lru":
			cfg.Driver.Policy = nvdimmc.PolicyLRU
		case "clock":
			cfg.Driver.Policy = nvdimmc.PolicyClock
		}
		if *uncached {
			cfg.NAND.BlocksPerDie = 512
		}
		cfg.Audit = *audit
		s, err := nvdimmc.New(cfg)
		die(err)
		sys = s
		ft := s.NewFioTarget()
		if *uncached {
			die(prefill(s))
			ft.SetWalkFootprint(120 << 30)
		} else {
			pages := s.Layout.NumSlots * 9 / 10
			die(fio.Prefill(ft, int64(pages)*core.PageSize, core.PageSize))
			ft.SetWalkFootprint(15 << 30)
		}
		tgt = ft
	default:
		usage(fmt.Errorf("unknown target %q", *target))
	}

	job := fio.Job{
		Pattern: pat, BlockSize: o.bs, NumJobs: *jobs,
		OpsPerThread: o.ops, WarmupOps: o.ops / 10, Align: 4096,
	}
	if *target == "nvdc" && !*uncached {
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

// checkPlaneFlags rejects values the pooled and fabric layers would
// silently replace with their defaults: a negative -pendingcap (the pool
// reads any cap below 1 as 256; 0 asks for the default) and, when plane
// is set, a non-positive -bs (the open-loop generator reads a block size
// of 0 as 4096). Single-module mode checks -bs itself (fio rejects 0).
func checkPlaneFlags(bs, pendingCap int, plane bool) error {
	if pendingCap < 0 {
		return fmt.Errorf("-pendingcap %d: want >= 0 (0 = default)", pendingCap)
	}
	if plane && bs <= 0 {
		return fmt.Errorf("-bs %d: block size must be positive", bs)
	}
	return nil
}

// planeOpts carries the pooled and fabric modes' flags into runPool and
// runFabric.
type planeOpts struct {
	channels, dimms, spares, sockets  int
	bs, ops, pendingCap               int
	interleave                        int64
	rate, deadlineUS, xlatNS, xbwGBps float64
	rw, faults, admission, qos        string
	isolation                         bool
}

// plane parses the flags the pooled and fabric modes share: -rw into a
// read percent, and -faults into a plan checked against sockets pools
// (0: a lone pool) with the member the plan needs (see core.FaultedConfig;
// no plan runs the paper-scale default).
func (o planeOpts) plane(sockets int) (int, fault.Plan, core.Config) {
	readPct, err := readPercent(o.rw)
	usage(err)
	if o.faults == "" {
		return readPct, nil, nvdimmc.DefaultConfig()
	}
	plan, err := o.parseFaults(sockets)
	usage(err)
	return readPct, plan, core.FaultedConfig()
}

// parseFaults parses -faults and checks it against sockets pools (0: a
// lone pool) of channels x dimms members plus the spares.
func (o planeOpts) parseFaults(sockets int) (fault.Plan, error) {
	plan, err := fault.ParsePlan(o.faults)
	if err != nil {
		return nil, err
	}
	if err := plan.Check(sockets, o.channels*o.dimms+o.spares); err != nil {
		return nil, err
	}
	return plan, nil
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
// dist:weight:qosweight:limit:burst:slo_us entry. Footprints are assigned by
// the caller (an even split of the pool footprint).
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
func runPool(o planeOpts) {
	readPct, plan, member := o.plane(0)
	walk := int64(15 << 30)
	if plan != nil {
		walk = 0 // run near capacity so misses map pages onto media
	}
	policy, err := pool.ParseAdmissionPolicy(o.admission)
	usage(err)
	var qosTenants []openloop.Tenant
	if o.qos != "" {
		qosTenants, err = parseQoS(o.qos, readPct, o.bs)
		usage(err)
	}
	cfg := pool.Config{
		Channels:        o.channels,
		DIMMsPerChannel: o.dimms,
		Interleave:      o.interleave,
		Member:          member,
		Workers:         runtime.GOMAXPROCS(0),
		Seed:            7,
		PrefillPages:    -1,
		WalkFootprint:   walk,
		Spares:          o.spares,
		Admission:       policy,
		PendingCap:      o.pendingCap,
		QoS:             pool.QoSFromTenants(qosTenants, o.isolation && o.qos != ""),
		ArmFaults:       plan.PoolHook(),
	}
	p, err := pool.New(cfg)
	die(err)
	foot := p.CachedFootprint()
	if plan != nil {
		foot = p.Capacity() - p.Capacity()%o.interleave
	}
	tenants := []openloop.Tenant{
		{Name: "cli", Dist: openloop.Uniform, ReadPct: readPct,
			BlockSize: o.bs, Footprint: foot},
	}
	if qosTenants != nil {
		// Even page-aligned footprint split across the -qos tenants.
		per := (foot / int64(len(qosTenants))) &^ 4095
		for i := range qosTenants {
			qosTenants[i].Footprint = per
			qosTenants[i].Offset = int64(i) * per
		}
		tenants = qosTenants
	}
	gen, err := openloop.New(openloop.Config{
		Seed:       7,
		RatePerSec: o.rate,
		Deadline:   sim.Duration(o.deadlineUS * float64(sim.Microsecond)),
		Tenants:    tenants,
	})
	die(err)
	die(pool.RunOpenLoop(p, gen, o.ops, nil))
	s := p.Stats()
	fmt.Printf("pool: %d channels x %d DIMMs (+%d spare), interleave %d B, capacity %d MB, admission %v\n",
		o.channels, o.dimms, o.spares, o.interleave, p.Capacity()>>20, policy)
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
	if o.spares > 0 || plan != nil {
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
	die(p.CheckHealth())
	fmt.Println("health ok")
}

// prefill writes every logical NAND page (zero data, deduplicated by the
// NAND model) so uncached runs read real media.
func prefill(s *core.System) error {
	zero := make([]byte, core.PageSize)
	n := s.FTL.LogicalPages()
	pending := 0
	for p := int64(0); p < n; p++ {
		pending++
		s.FTL.WritePage(p, zero, func(error) { pending-- })
		if pending >= 512 {
			if err := s.RunUntil(func() bool { return pending < 64 }, nvdimmc.Milliseconds(30000)); err != nil {
				return err
			}
		}
	}
	return s.RunUntil(func() bool { return pending == 0 }, nvdimmc.Milliseconds(30000))
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
