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
// -spares adds hot-spare modules, and -faults arms seeded fault schedules
// on individual members:
//
//	nvdimmc-sim -channels 3 -spares 1 -faults 0:program:1 -rw randwrite -ops 500
//	nvdimmc-sim -channels 2 -faults "0:mediaread:5,1:dietimeout:0" -ops 900
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
// end-of-run socket state table. -sfaults schedules socket:kind:onset
// faults — kill (persistent program failures at the onset'th site
// occurrence: the socket evacuates, chunks re-home, resident pages
// migrate), slow (probabilistic die timeouts: latency tails only) and link
// (the socket's interconnect links degrade at fabric epoch onset):
//
//	nvdimmc-sim -sockets 3 -channels 2 -rate 1.5e6 -rw randwrite -ops 800 -sfaults 1:kill:1
//	nvdimmc-sim -sockets 2 -xlat 900 -xbw 4 -rate 1e6 -ops 500 -sfaults 0:link:8
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
	rw := flag.String("rw", "randread", "pattern: read | write | randread | randwrite")
	bs := flag.Int("bs", 4096, "block size in bytes")
	jobs := flag.Int("numjobs", 1, "thread count")
	ops := flag.Int("ops", 1000, "operations per thread")
	uncached := flag.Bool("uncached", false, "nvdc: force misses (footprint >> cache, media prefilled)")
	policy := flag.String("policy", "lrc", "nvdc slot replacement: lrc | lru | clock")
	audit := flag.Bool("audit", true, "nvdc: run the protocol-invariant auditor on the trace stream")
	channels := flag.Int("channels", 1, "pooled socket: memory channel count (>1 enables the interleaved pool)")
	dimms := flag.Int("dimms", 1, "pooled socket: DIMMs per channel")
	interleave := flag.Int64("interleave", 4096, "pooled socket: interleave granularity in bytes (e.g. 4096, 2097152)")
	rate := flag.Float64("rate", 0, "pooled socket: open-loop arrival rate in ops per simulated second (0 = saturating)")
	spares := flag.Int("spares", 0, "pooled socket: hot-spare modules for quarantine failover")
	faults := flag.String("faults", "", "pooled socket: comma-separated member:kind:nth fault schedules (kind: program | mediaread | dietimeout | ackdrop; nth = site occurrence the schedule starts at, 0 = 1)")
	admission := flag.String("admission", "block", "pooled socket: admission policy: block | shed-newest | shed-oldest | deadline-aware")
	deadline := flag.Float64("deadline", 0, "pooled socket: per-request completion budget in microseconds (0 = none)")
	pendingCap := flag.Int("pendingcap", 0, "pooled socket: per-channel admission-held backlog cap in fragments (0 = default)")
	qos := flag.String("qos", "", "pooled socket: comma-separated dist:weight:qosweight:limit:burst:slo_us tenant contracts (dist: zipf | uni)")
	isolation := flag.Bool("isolation", true, "pooled socket: with -qos, enforce the contracts (token buckets + DRR dispatch) rather than only tracking them")
	sockets := flag.Int("sockets", 1, "NUMA fabric: socket count (>1 composes per-socket pools behind one request plane)")
	xlat := flag.Float64("xlat", 400, "NUMA fabric: cross-socket one-way link latency in nanoseconds")
	xbw := flag.Float64("xbw", 8, "NUMA fabric: per-directed-link interconnect bandwidth in GB/s")
	sfaults := flag.String("sfaults", "", "NUMA fabric: comma-separated socket:kind:onset schedules (kind: kill | slow | link)")
	flag.Parse()

	pooled := *channels > 1 || *dimms > 1 || *spares > 0 || *faults != "" ||
		*admission != "block" || *deadline > 0 || *pendingCap > 0 || *qos != ""
	if err := checkPlaneFlags(*bs, *pendingCap, pooled || *sockets > 1); err != nil {
		fmt.Fprintln(os.Stderr, "nvdimmc-sim:", err)
		os.Exit(2)
	}

	if *sockets > 1 {
		runFabric(fabricOpts{
			sockets: *sockets, channels: *channels, dimms: *dimms,
			interleave: *interleave, rate: *rate, rw: *rw, bs: *bs, ops: *ops,
			spares: *spares, xlatNS: *xlat, xbwGBps: *xbw, sfaults: *sfaults,
		})
		return
	}

	if pooled {
		runPool(poolOpts{
			channels: *channels, dimms: *dimms, interleave: *interleave,
			rate: *rate, rw: *rw, bs: *bs, ops: *ops,
			spares: *spares, faults: *faults,
			admission: *admission, deadlineUS: *deadline, pendingCap: *pendingCap,
			qos: *qos, isolation: *isolation,
		})
		return
	}

	var pat fio.Pattern
	switch *rw {
	case "read":
		pat = fio.SeqRead
	case "write":
		pat = fio.SeqWrite
	case "randread":
		pat = fio.RandRead
	case "randwrite":
		pat = fio.RandWrite
	default:
		fmt.Fprintf(os.Stderr, "nvdimmc-sim: unknown pattern %q\n", *rw)
		os.Exit(2)
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
		fmt.Fprintf(os.Stderr, "nvdimmc-sim: unknown target %q\n", *target)
		os.Exit(2)
	}

	job := fio.Job{
		Pattern: pat, BlockSize: *bs, NumJobs: *jobs,
		OpsPerThread: *ops, WarmupOps: *ops / 10, Align: 4096,
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

// faultSpec is one parsed -faults entry: arm <kind> on member <member>
// starting at the site's <nth> consultation.
type faultSpec struct {
	member int
	kind   string
	nth    uint64
}

// parseFaults parses the -faults flag: "member:kind:nth[,member:kind:nth...]"
// with member in [0, members).
func parseFaults(spec string, members int) ([]faultSpec, error) {
	var out []faultSpec
	for _, part := range strings.Split(spec, ",") {
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("bad -faults entry %q (want member:kind:nth)", part)
		}
		member, err1 := strconv.Atoi(f[0])
		nth, err2 := strconv.ParseUint(f[2], 10, 64)
		if err1 != nil || err2 != nil || member < 0 || member >= members {
			return nil, fmt.Errorf("bad -faults entry %q: member in [0,%d) and nth >= 0 required", part, members)
		}
		if nth == 0 {
			nth = 1
		}
		switch f[1] {
		case "program", "mediaread", "dietimeout", "ackdrop":
		default:
			return nil, fmt.Errorf("unknown fault kind %q (want program | mediaread | dietimeout | ackdrop)", f[1])
		}
		out = append(out, faultSpec{member: member, kind: f[1], nth: nth})
	}
	return out, nil
}

// armSpecs arms the parsed fault schedules on one member's registry.
func armSpecs(specs []faultSpec, member int, g *fault.Registry) {
	for _, sp := range specs {
		if sp.member != member {
			continue
		}
		switch sp.kind {
		case "program":
			g.OnOccurrence(fault.NANDProgramFail, sp.nth).Times(1 << 30)
		case "mediaread":
			g.OnOccurrence(fault.NANDReadBitFlip, sp.nth).Times(300)
		case "dietimeout":
			g.Prob(fault.NANDDieTimeout, 0.25).Param(400)
		case "ackdrop":
			g.OnOccurrence(fault.CPAckDrop, sp.nth).Times(12)
		}
	}
}

// poolOpts carries the pooled-mode CLI knobs into runPool.
type poolOpts struct {
	channels, dimms int
	interleave      int64
	rate            float64
	rw              string
	bs, ops         int
	spares          int
	faults          string
	admission       string
	deadlineUS      float64
	pendingCap      int
	qos             string
	isolation       bool
}

// parseQoS parses the -qos flag: one tenant per comma-separated
// dist:weight:qosweight:limit:burst:slo_us entry. Footprints are assigned by
// the caller (an even split of the pool footprint).
func parseQoS(spec string, readPct, bs int) []openloop.Tenant {
	var out []openloop.Tenant
	for i, part := range strings.Split(spec, ",") {
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) != 6 {
			fmt.Fprintf(os.Stderr, "nvdimmc-sim: bad -qos entry %q (want dist:weight:qosweight:limit:burst:slo_us)\n", part)
			os.Exit(2)
		}
		var dist openloop.Dist
		switch f[0] {
		case "zipf":
			dist = openloop.Zipfian
		case "uni":
			dist = openloop.Uniform
		default:
			fmt.Fprintf(os.Stderr, "nvdimmc-sim: unknown -qos distribution %q (want zipf | uni)\n", f[0])
			os.Exit(2)
		}
		weight, err1 := strconv.ParseFloat(f[1], 64)
		qosWeight, err2 := strconv.ParseFloat(f[2], 64)
		limit, err3 := strconv.ParseFloat(f[3], 64)
		burst, err4 := strconv.Atoi(f[4])
		sloUS, err5 := strconv.ParseFloat(f[5], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			fmt.Fprintf(os.Stderr, "nvdimmc-sim: bad -qos entry %q: numeric fields required\n", part)
			os.Exit(2)
		}
		out = append(out, openloop.Tenant{
			Name: fmt.Sprintf("t%d", i), Dist: dist, Weight: weight, ReadPct: readPct,
			BlockSize: bs, QoSWeight: qosWeight, LimitPerSec: limit, Burst: burst,
			SLOP99: sim.Duration(sloUS * float64(sim.Microsecond)),
		})
	}
	return out
}

// runPool drives the interleaved multi-channel pool with a single-tenant
// open-loop stream and prints the pooled and per-channel stats. With -spares
// or -faults it also prints the end-of-run member state table.
func runPool(o poolOpts) {
	channels, dimms, interleave := o.channels, o.dimms, o.interleave
	rate, rw, bs, ops, spares, faults := o.rate, o.rw, o.bs, o.ops, o.spares, o.faults
	readPct := 0 // openloop default: read-only
	switch rw {
	case "randread":
	case "randwrite":
		readPct = -1
	default:
		fmt.Fprintf(os.Stderr, "nvdimmc-sim: pooled mode supports -rw randread|randwrite, not %q\n", rw)
		os.Exit(2)
	}
	specs := []faultSpec(nil)
	member := nvdimmc.DefaultConfig()
	walk := int64(15 << 30)
	if faults != "" {
		var err error
		if specs, err = parseFaults(faults, channels*dimms+spares); err != nil {
			fmt.Fprintln(os.Stderr, "nvdimmc-sim:", err)
			os.Exit(2)
		}
		// Fault sites live on NAND and the CP transport, which a paper-scale
		// member at a cache-resident footprint never touches; shrink the
		// module and run near capacity so misses map pages onto media.
		member.CacheBytes = 1 << 20
		member.NAND.BlocksPerDie = 32
		member.NAND.PagesPerBlock = 16
		// Surface NAND program failures to the driver instead of letting the
		// FTL absorb them, and drop the auditor: it does not model deferred
		// program acks under pipelined load.
		member.NVMC.AckAfterProgram = true
		member.Audit = false
		walk = 0
	}
	policy, err := pool.ParseAdmissionPolicy(o.admission)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvdimmc-sim:", err)
		os.Exit(2)
	}
	var qosTenants []openloop.Tenant
	if o.qos != "" {
		qosTenants = parseQoS(o.qos, readPct, bs)
	}
	cfg := pool.Config{
		Channels:        channels,
		DIMMsPerChannel: dimms,
		Interleave:      interleave,
		Member:          member,
		Workers:         runtime.GOMAXPROCS(0),
		Seed:            7,
		PrefillPages:    -1,
		WalkFootprint:   walk,
		Spares:          spares,
		Admission:       policy,
		PendingCap:      o.pendingCap,
		QoS:             pool.QoSFromTenants(qosTenants, o.isolation && o.qos != ""),
	}
	if specs != nil {
		cfg.ArmFaults = func(m int, g *fault.Registry) { armSpecs(specs, m, g) }
	}
	p, err := pool.New(cfg)
	die(err)
	foot := p.CachedFootprint()
	if faults != "" {
		foot = p.Capacity() - p.Capacity()%interleave
	}
	tenants := []openloop.Tenant{
		{Name: "cli", Dist: openloop.Uniform, ReadPct: readPct,
			BlockSize: bs, Footprint: foot},
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
		RatePerSec: rate,
		Deadline:   sim.Duration(o.deadlineUS * float64(sim.Microsecond)),
		Tenants:    tenants,
	})
	die(err)
	die(pool.RunOpenLoop(p, gen, ops, nil))
	s := p.Stats()
	fmt.Printf("pool: %d channels x %d DIMMs (+%d spare), interleave %d B, capacity %d MB, admission %v\n",
		channels, dimms, spares, interleave, p.Capacity()>>20, policy)
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
	if spares > 0 || faults != "" {
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

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvdimmc-sim:", err)
		os.Exit(1)
	}
}
