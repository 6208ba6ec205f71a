package main

import (
	"bytes"
	"fmt"
	"io"

	"nvdimmc/internal/core"
	"nvdimmc/internal/metrics"
	"nvdimmc/internal/numa"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/replay"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// A workload is one set of generated inputs driven through one system.
type workload struct {
	name string
	// deterministic: for a given seed the simulator's work counts and model
	// outputs repeat exactly, so every rep must agree on them.
	deterministic bool
	newSystem     func() (system, error)
}

// system is one workload's system under test. The harness drives it through
// fixed phases, timing setup and run and profiling both in a traced rep.
type system interface {
	// setup builds the system; its wall time is setup_s.
	setup() error
	// prepare generates the inputs from seed, shrunk by scale for tests,
	// and snapshots the counters the report takes differences against.
	prepare(seed uint64, scale float64) error
	// run drives the inputs through the system and returns how many
	// requests it offered.
	run() (int, error)
	// check verifies the finished run: it returns how many of the offered
	// requests did not complete, and one problem per failed check.
	check(offered int) (failed int, problems []string)
	// report adds the run's per-layer metrics and model outputs to r.
	report(r *rep, runS float64, requests int)
	// micro times public calls of single layers on the workload's inputs.
	micro(m map[string]float64) error
	// close stops whatever setup started.
	close()
}

// Workload sizes are chosen so that one rep's run phase takes under a second
// on a 2-core host: a shared host's speed on memory-bound code wanders by
// tens of percent from second to second, so a run is steadied by the median
// of many short reps rather than by a few long ones.
var workloads = []workload{
	// Every epoch is busy and nearly every access hits the DRAM cache:
	// stresses the kernel, channel, core and the per-epoch pool boundary,
	// and bypasses cp, nvmc and media. 3e6 req/s stays under the hit
	// capacity of six channels: no backlog, simulated p99 ~5 us.
	{name: "steady", deterministic: true, newSystem: func() (system, error) {
		return &poolSystem{rate: 3e6, requests: 200_000, probeEvery: 4}, nil
	}},
	// The paper's miss path with writes beside reads: CP commands, refresh
	// detection, tRFC-window cachefill and writeback, NAND programs. The
	// tenants span ~8x the cache; 1e5 req/s keeps the backlog flat.
	{name: "spill", deterministic: true, newSystem: func() (system, error) {
		return &poolSystem{rate: 1e5, requests: 30_000, probeEvery: 4, spill: true}, nil
	}},
	// The steady pool at 2e3 req/s: members sit idle between arrivals, so
	// the pool's quiet-epoch lookahead and the members' idle warp do the work.
	{name: "idle-pool", deterministic: true, newSystem: func() (system, error) {
		return &poolSystem{rate: 2e3, requests: 50_000, probeEvery: 64}, nil
	}},
	// The same six members as two 3-channel sockets behind the NUMA fabric,
	// which steps every epoch with no lookahead.
	{name: "idle-fabric", deterministic: true, newSystem: func() (system, error) {
		return &fabricSystem{rate: 2e3, requests: 4_000}, nil
	}},
	// HTTP/JSON, the sim-loop handoff and host-time latency, over mostly
	// idle members. Admission instants follow wall-clock interleaving, so
	// the simulator's counts differ from rep to rep.
	{name: "service", deterministic: false, newSystem: newService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchPool is the pool every pooled workload runs: the default member,
// 4 KiB interleave, caches prefilled to 90% of their slots, page walks costed
// at the paper's 15 GiB footprint, and two epoch workers.
func benchPool(channels, probeEvery int) pool.Config {
	return pool.Config{
		Channels:        channels,
		DIMMsPerChannel: 1,
		Interleave:      4096,
		Member:          core.DefaultConfig(),
		PrefillPages:    -1,
		WalkFootprint:   15 << 30,
		Workers:         2,
		Seed:            1,
		ProbeEvery:      probeEvery,
		// Set explicitly: the default guard, 1<<22 epochs (~33 s
		// simulated), is within reach of the idle workloads' span.
		MaxEpochs: 1 << 28,
	}
}

// scaled shrinks a request count for tests.
func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m > 0 {
		return m
	}
	return 1
}

// generate draws n requests from an open-loop stream.
func generate(cfg openloop.Config, n int) ([]openloop.Request, error) {
	g, err := openloop.New(cfg)
	if err != nil {
		return nil, err
	}
	reqs := make([]openloop.Request, n)
	for i := range reqs {
		reqs[i] = g.Next()
	}
	return reqs, nil
}

// encodeTrace writes requests as a binary trace: the only form in which the
// replaying workloads hand their inputs to the system.
func encodeTrace(reqs []openloop.Request) ([]byte, error) {
	var buf bytes.Buffer
	w, err := replay.NewWriter(&buf, replay.Binary)
	if err != nil {
		return nil, err
	}
	for _, r := range reqs {
		if err := w.Record(r); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func generateTrace(cfg openloop.Config, n int) ([]byte, error) {
	reqs, err := generate(cfg, n)
	if err != nil {
		return nil, err
	}
	return encodeTrace(reqs)
}

// ledger is a request plane's conservation counters.
type ledger struct {
	submitted, completed, failed, shed, expired, throttled                          uint64
	writesIn, writesAcked, writesFailed, writesShed, writesExpired, writesThrottled uint64
}

// check requires every offered request to be submitted and terminal and
// every admitted write to be acked or typed-terminal (zero acked-write
// loss). It counts the offered requests that did not complete.
func (l ledger) check(offered int) (failed int, problems []string) {
	if l.submitted != uint64(offered) {
		problems = append(problems, fmt.Sprintf("submitted %d of %d offered requests", l.submitted, offered))
	}
	if t := l.completed + l.failed + l.shed + l.expired + l.throttled; t != l.submitted {
		problems = append(problems, fmt.Sprintf("%d terminal of %d submitted", t, l.submitted))
	}
	if w := l.writesAcked + l.writesFailed + l.writesShed + l.writesExpired + l.writesThrottled; w != l.writesIn {
		problems = append(problems, fmt.Sprintf("acked-write loss: %d writes in, %d accounted", l.writesIn, w))
	}
	if uint64(offered) > l.completed {
		failed = offered - int(l.completed)
	}
	return failed, problems
}

// counts sums the public counters of a set of member systems.
type counts struct {
	events, hits, misses, cpCmds      uint64
	windowsSeen, windowsUsed, detects uint64
	programs, hostWrites, gcWrites    uint64
	// cmdWindows and cmds rebuild the NVMC's windows-per-command average
	// across members.
	cmdWindows, cmds float64
}

func countMembers(systems []*core.System) counts {
	var c counts
	for _, s := range systems {
		c.events += s.K.Processed()
		d := s.Driver.Stats()
		c.hits += d.Hits
		c.misses += d.Misses
		c.cpCmds += d.Cachefills + d.Writebacks + d.CombinedCmds
		n := s.NVMC.Stats()
		c.windowsSeen += n.WindowsSeen
		c.windowsUsed += n.WindowsUsed
		cmds := float64(n.Cachefills + n.Writebacks + n.Combined)
		c.cmds += cmds
		c.cmdWindows += n.WindowsPerCmd * cmds
		c.detects += s.Detector.Stats().Detections
		_, programs, _, _ := s.NAND.Stats()
		c.programs += programs
		hw, gw, _, _ := s.FTL.Stats()
		c.hostWrites += hw
		c.gcWrites += gw
	}
	return c
}

func (c counts) minus(o counts) counts {
	return counts{
		events: c.events - o.events, hits: c.hits - o.hits, misses: c.misses - o.misses,
		cpCmds: c.cpCmds - o.cpCmds, windowsSeen: c.windowsSeen - o.windowsSeen,
		windowsUsed: c.windowsUsed - o.windowsUsed, detects: c.detects - o.detects,
		programs: c.programs - o.programs, hostWrites: c.hostWrites - o.hostWrites,
		gcWrites: c.gcWrites - o.gcWrites, cmdWindows: c.cmdWindows - o.cmdWindows,
		cmds: c.cmds - o.cmds,
	}
}

func (c counts) report(m map[string]float64, requests int, runS float64) {
	n := float64(requests)
	m["sim.events_per_req"] = ratio(float64(c.events), n)
	m["sim.ns_per_event"] = ratio(runS*1e9, float64(c.events))
	m["nvdc.hit_ratio"] = ratio(float64(c.hits), float64(c.hits+c.misses))
	m["nvdc.cp_cmds_per_req"] = ratio(float64(c.cpCmds), n)
	m["nvmc.windows_used_frac"] = ratio(float64(c.windowsUsed), float64(c.windowsSeen))
	m["nvmc.windows_per_cmd"] = ratio(c.cmdWindows, c.cmds)
	m["refdet.detections"] = float64(c.detects)
	m["media.nand_programs_per_req"] = ratio(float64(c.programs), n)
	// The FTL's convention: no host writes is a write amplification of 1.
	m["media.write_amp"] = 1
	if c.hostWrites > 0 {
		m["media.write_amp"] = float64(c.hostWrites+c.gcWrites) / float64(c.hostWrites)
	}
}

// modelReport records the simulated outcome: the model is unvalidated (the
// repository holds no hardware reference), so these are checked for
// repeatability, not accuracy.
func modelReport(m map[string]float64, lat *metrics.Histogram, span sim.Duration, completed uint64) {
	m["model.sim_s"] = span.Seconds()
	m["model.p50_us"] = lat.Percentile(50).Microseconds()
	m["model.p99_us"] = lat.Percentile(99).Microseconds()
	m["model.p999_us"] = lat.Percentile(99.9).Microseconds()
	m["model.bw_mbps"] = ratio(float64(completed)*pool.PageSize/1e6, span.Seconds())
}

func poolMembers(p *pool.Pool) []*core.System {
	out := make([]*core.System, p.Members())
	for i := range out {
		out[i] = p.Member(i)
	}
	return out
}

// poolSystem replays a generated trace through one 6-channel pool: two
// tenants, a zipfian key-value tenant and a uniform mixed tenant, share the
// cached footprint (or, for spill, the whole capacity).
type poolSystem struct {
	rate       float64
	requests   int
	probeEvery int
	spill      bool

	p      *pool.Pool
	trace  []byte
	before counts
	start  sim.Time
}

func (s *poolSystem) setup() (err error) {
	s.p, err = pool.New(benchPool(6, s.probeEvery))
	return err
}

func (s *poolSystem) prepare(seed uint64, scale float64) (err error) {
	fp, kvRead := s.p.CachedFootprint(), 90
	if s.spill {
		fp, kvRead = s.p.Capacity(), 50
	}
	s.trace, err = generateTrace(openloop.Config{Seed: seed, RatePerSec: s.rate, Tenants: []openloop.Tenant{
		{Name: "kv", Dist: openloop.Zipfian, Weight: 3, ReadPct: kvRead, Footprint: fp},
		{Name: "mix", Dist: openloop.Uniform, Weight: 1, ReadPct: 50, Footprint: fp},
	}}, scaled(s.requests, scale))
	s.before = countMembers(poolMembers(s.p))
	s.start = s.p.Now()
	return err
}

func (s *poolSystem) run() (int, error) {
	rd, err := replay.NewReader(bytes.NewReader(s.trace))
	if err != nil {
		return 0, err
	}
	st, err := replay.Drive(s.p, rd, 0)
	return st.Ops, err
}

func (s *poolSystem) check(offered int) (int, []string) {
	var problems []string
	if err := s.p.CheckHealth(); err != nil {
		problems = append(problems, err.Error())
	}
	st := s.p.Stats()
	failed, more := ledger{
		st.Submitted, st.Completed, st.Failed, st.Shed, st.Expired, st.Throttled,
		st.WritesIn, st.WritesAcked, st.WritesFailed, st.WritesShed, st.WritesExpired, st.WritesThrottled,
	}.check(offered)
	return failed, append(problems, more...)
}

func (s *poolSystem) report(r *rep, runS float64, requests int) {
	st := s.p.Stats()
	countMembers(poolMembers(s.p)).minus(s.before).report(r.Metrics, requests, runS)
	r.Metrics["pool.epochs"] = float64(st.Epochs)
	r.Metrics["pool.epochs_per_s"] = ratio(float64(st.Epochs), runS)
	r.Metrics["pool.held_peak"] = float64(st.HeldPeak)
	modelReport(r.Metrics, st.Lat, s.p.Now().Sub(s.start), st.Completed)
}

func (s *poolSystem) micro(m map[string]float64) error {
	return microTimings(m, s.trace, s.p, func(off int64) (int64, bool) { return off, true })
}

func (s *poolSystem) close() {}

// fabricSystem drives a generated trace through a 2-socket fabric of
// 3-channel pools: one affine tenant per socket over that socket's cached
// footprint, plus a roamer homed on socket 0 that addresses socket 1.
type fabricSystem struct {
	rate     float64
	requests int

	f      *numa.Fabric
	trace  []byte
	home   []int // tenant -> home socket; traces do not carry it
	before counts
	start  sim.Duration
}

func (s *fabricSystem) setup() (err error) {
	s.f, err = numa.New(numa.Config{
		Sockets: 2, Pool: benchPool(3, 64), Workers: 2, Seed: 1, MaxEpochs: 1 << 28,
	})
	return err
}

func (s *fabricSystem) members() []*core.System {
	var out []*core.System
	for sk := 0; sk < s.f.Cfg.Sockets; sk++ {
		out = append(out, poolMembers(s.f.Socket(sk))...)
	}
	return out
}

func (s *fabricSystem) prepare(seed uint64, scale float64) (err error) {
	span := s.f.Span()
	var ts []openloop.Tenant
	for sk := 0; sk < s.f.Cfg.Sockets; sk++ {
		ts = append(ts, openloop.Tenant{
			Name: fmt.Sprintf("affine-%d", sk), Weight: 2, ReadPct: 70,
			Footprint: s.f.Socket(sk).CachedFootprint(), Offset: int64(sk) * span, Socket: sk,
		})
	}
	ts = append(ts, openloop.Tenant{
		Name: "roamer", Weight: 1, ReadPct: 70,
		Footprint: s.f.Socket(1).CachedFootprint(), Offset: span, Socket: 0,
	})
	s.home = nil
	for _, t := range ts {
		s.home = append(s.home, t.Socket)
	}
	s.trace, err = generateTrace(openloop.Config{Seed: seed, RatePerSec: s.rate, Tenants: ts}, scaled(s.requests, scale))
	s.before = countMembers(s.members())
	s.start = s.f.Now()
	return err
}

func (s *fabricSystem) run() (int, error) {
	rd, err := replay.NewReader(bytes.NewReader(s.trace))
	if err != nil {
		return 0, err
	}
	n := 0
	var rdErr error
	err = s.f.Run(func() (openloop.Request, bool) {
		q, err := rd.Next()
		if err != nil {
			if err != io.EOF {
				rdErr = err
			}
			return openloop.Request{}, false
		}
		if q.Tenant >= len(s.home) {
			rdErr = fmt.Errorf("trace record %d: tenant %d has no home socket", n+1, q.Tenant)
			return openloop.Request{}, false
		}
		q.Socket = s.home[q.Tenant]
		n++
		return q, true
	})
	if rdErr != nil {
		return n, rdErr
	}
	return n, err
}

func (s *fabricSystem) check(offered int) (int, []string) {
	var problems []string
	if err := s.f.CheckHealth(); err != nil {
		problems = append(problems, err.Error())
	}
	st := s.f.Stats()
	failed, more := ledger{
		st.Submitted, st.Completed, st.Failed, st.Shed, st.Expired, st.Throttled,
		st.WritesIn, st.WritesAcked, st.WritesFailed, st.WritesShed, st.WritesExpired, st.WritesThrottled,
	}.check(offered)
	return failed, append(problems, more...)
}

func (s *fabricSystem) report(r *rep, runS float64, requests int) {
	st := s.f.Stats()
	m := r.Metrics
	countMembers(s.members()).minus(s.before).report(m, requests, runS)
	epochs, held := 0, 0
	for _, ps := range st.PerSocket {
		epochs += ps.Pool.Epochs
		held = max(held, ps.Pool.HeldPeak)
	}
	m["pool.epochs"] = float64(epochs)
	m["pool.epochs_per_s"] = ratio(float64(epochs), runS)
	m["pool.held_peak"] = float64(held)
	m["numa.epochs_per_s"] = ratio(float64(st.Epochs), runS)
	m["numa.remote_frac"] = ratio(float64(st.RemoteRequests), float64(st.Submitted))
	lat := metrics.NewHistogram()
	lat.Merge(st.Lat)
	lat.Merge(st.LatRemote)
	modelReport(m, lat, s.f.Now()-s.start, st.Completed)
}

func (s *fabricSystem) micro(m map[string]float64) error {
	span := s.f.Span()
	// Socket 0's pool serves fabric addresses [0, span) at the same offsets.
	return microTimings(m, s.trace, s.f.Socket(0), func(off int64) (int64, bool) {
		return off % span, off < span
	})
}

func (s *fabricSystem) close() {}
