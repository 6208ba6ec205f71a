package experiments

import (
	"fmt"
	"slices"

	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/metrics"
	"nvdimmc/internal/numa"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/workload/openloop"
)

// Point is one plane run, whole: the plane's shape and front end, the load
// laid over it, the fault plan, the scheduler, the seeds and the request
// count. Run reads nothing but the value, so a point re-run from a copy of
// it gives the same outcome.
type Point struct {
	Label string // prefixes every error Run returns

	// Pool is the plane's shape and front end: a lone pool, or with
	// Fabric.Sockets >= 1 every socket of a NUMA fabric, which takes its
	// seed, workers and scheduler (DisableLookahead) from Pool. Run sets
	// Pool's QoS and ArmFaults and the fabric's pool and fault fields.
	Pool   pool.Config
	Fabric numa.Config

	// Load's tenants are laid over the built plane by Run (see load).
	Load      openloop.Config
	BlockSize int     // every tenant's request size in bytes
	Cached    bool    // lay the load over the cached footprint, not the capacity
	Shares    []int   // the tenants' parts of a pool's extent (missing: 1), cut at whole pages
	QoS       QoSMode // what the pool front end does with the tenants' contracts

	Plan fault.Plan // armed after the member prefill, so it never moves capacity
	Reqs int
}

// QoSMode is what a pool front end does with its tenants' QoS contracts.
type QoSMode int

const (
	QoSOff     QoSMode = iota // tenant-blind dispatch
	QoSTrack                  // per-tenant tracking, contracts not enforced
	QoSIsolate                // token buckets and DRR dispatch enforced
)

// Check rejects what a plane would silently replace with its default — a
// negative pending cap (the pool reads any cap below 1 as 256), a block
// size below 1 (the generator reads 0 as 4096) — and a plan naming a
// target missing from Fabric.Sockets sockets (0: a lone pool) of Pool's
// members.
func (pt Point) Check() error {
	if pt.Pool.PendingCap < 0 {
		return fmt.Errorf("pending cap %d: want >= 0 (0 = default)", pt.Pool.PendingCap)
	}
	if pt.BlockSize <= 0 {
		return fmt.Errorf("block size %d: must be positive", pt.BlockSize)
	}
	return pt.Plan.Check(pt.Fabric.Sockets, pt.Pool.Channels*pt.Pool.DIMMsPerChannel+pt.Pool.Spares)
}

// Plane is what a point runs on: a pool or a NUMA fabric that audits
// itself and keeps a latency histogram.
type Plane interface {
	pool.Plane
	CheckHealth() error
	Latency() *metrics.Histogram
}

// Run builds the point's plane and load, drives Reqs requests through the
// plane, handing every record to sink (nil discards them), audits it and
// returns it with its outcome.
func (pt Point) Run(sink func(pool.Completion)) (Plane, Outcome, error) {
	pl, gen, err := pt.build()
	if err != nil {
		return nil, Outcome{}, err
	}
	out, err := runPoint(pt.Label, pl, gen, pt.Reqs, sink)
	return pl, out, err
}

// build checks the point, builds its plane and lays the load over it.
func (pt Point) build() (Plane, *openloop.Generator, error) {
	pl, err := pt.plane()
	if err == nil {
		var gen *openloop.Generator
		if gen, err = pt.load(pl); err == nil {
			return pl, gen, nil
		}
	}
	return nil, nil, fmt.Errorf("%s: %w", pt.Label, err)
}

// plane builds the pool, or the fabric of Pool sockets, with the QoS
// contracts and the plan wired in. On an error the plane is unusable.
func (pt Point) plane() (Plane, error) {
	if err := pt.Check(); err != nil {
		return nil, err
	}
	cfg := pt.Pool
	cfg.QoS, cfg.ArmFaults = pool.QoSConfig{}, nil
	if pt.QoS != QoSOff {
		cfg.QoS = pool.QoSFromTenants(pt.Load.Tenants, pt.QoS == QoSIsolate)
	}
	if pt.Fabric.Sockets == 0 {
		cfg.ArmFaults = pt.Plan.PoolHook()
		return pool.New(cfg)
	}
	fc := pt.Fabric
	fc.Pool, fc.Seed, fc.Workers, fc.DisableLookahead = cfg, cfg.Seed, cfg.Workers, cfg.DisableLookahead
	fc.ArmFaults, fc.LinkFaults = pt.Plan.FabricHook(), pt.Plan.LinkFaults()
	return numa.New(fc)
}

// load lays the tenants over the built plane. On a pool they lie in order
// over its capacity rounded down to the interleave (or its cached
// footprint), each its Shares part. On a fabric the one tenant is cloned
// per socket (s<j>, homed there, weight 2) over the socket's span (or
// cached footprint), plus a roamer (weight 1) homed on socket 0 over the
// whole capacity (or the last socket's cached footprint): local traffic on
// every socket, and requests that pay the interconnect.
func (pt Point) load(pl Plane) (*openloop.Generator, error) {
	cfg := pt.Load
	var ts []openloop.Tenant
	switch pl := pl.(type) {
	case *pool.Pool:
		foot := pl.Capacity() - pl.Capacity()%pl.Cfg.Interleave
		if pt.Cached {
			foot = pl.CachedFootprint()
		}
		shares := slices.Clone(pt.Shares)
		for len(shares) < len(cfg.Tenants) {
			shares = append(shares, 1)
		}
		var sum, off int64
		for _, n := range shares {
			sum += int64(n)
		}
		for i, t := range cfg.Tenants {
			t.Footprint, t.Offset = (foot*int64(shares[i])/sum)&^(PageSize-1), off
			off += t.Footprint
			ts = append(ts, t)
		}
	case *numa.Fabric:
		if len(cfg.Tenants) != 1 {
			return nil, fmt.Errorf("a fabric load clones one tenant, not %d", len(cfg.Tenants))
		}
		last, span := pl.Cfg.Sockets-1, pl.Span()
		extent := func(s int) (int64, int64) { // socket s's footprint and offset
			if pt.Cached {
				return pl.Socket(s).CachedFootprint(), int64(s) * span
			}
			return span, int64(s) * span
		}
		for s := 0; s <= last; s++ {
			t := cfg.Tenants[0]
			t.Name, t.Socket, t.Weight = fmt.Sprintf("s%d", s), s, 2
			t.Footprint, t.Offset = extent(s)
			ts = append(ts, t)
		}
		roam := cfg.Tenants[0]
		roam.Name, roam.Socket, roam.Weight = "roam", 0, 1
		roam.Footprint, roam.Offset = pl.Capacity(), 0
		if pt.Cached {
			roam.Footprint, roam.Offset = extent(last)
		}
		ts = append(ts, roam)
	}
	for i := range ts {
		ts[i].BlockSize = pt.BlockSize
	}
	cfg.Tenants = ts
	return openloop.New(cfg)
}

// runPoint drives n requests from gen through pl, handing every record to
// sink (nil discards them), audits the plane and returns its outcome. Any
// error carries the point's label.
func runPoint(label string, pl Plane, gen *openloop.Generator, n int, sink func(pool.Completion)) (Outcome, error) {
	err := pool.RunOpenLoop(pl, gen, n, sink)
	if err == nil {
		err = pl.CheckHealth()
	}
	if err != nil {
		return Outcome{}, fmt.Errorf("%s: %w", label, err)
	}
	return Outcome{Ledger: pl.Ledger(), Lat: pl.Latency()}, nil
}

// campaignPoint is the robustness campaigns' point (and the replay and
// service experiments' pool): 3 channels + 1 hot spare of member,
// prefilled to 90% of the cache, under one uniform tenant at readPct%
// reads over the whole capacity. It builds on one worker, as campaign
// points are the parallel axis (TestPoolFaultedWorkerCountIdentical
// covers the in-pool axis). Misses serialize on a member's driver (~10
// epochs per completion), so the breaker window spans many epochs to
// gather samples.
func campaignPoint(label string, member core.Config, seed, loadSeed uint64, readPct int, lockstep bool) Point {
	return Point{
		Label: label,
		Pool: pool.Config{
			Channels:           3,
			DIMMsPerChannel:    1,
			Interleave:         4096,
			Member:             member,
			Workers:            1,
			Seed:               seed,
			PrefillPages:       -1,
			Spares:             1,
			DisableLookahead:   lockstep,
			BreakerWindow:      64,
			BreakerMinSamples:  6,
			BreakerErrRate:     0.4,
			BreakerCooldown:    8,
			BreakerCloseStreak: 4,
		},
		Load: openloop.Config{
			Seed:    loadSeed,
			Tenants: []openloop.Tenant{{Name: "mix", Dist: openloop.Uniform, ReadPct: readPct}},
		},
		BlockSize: PageSize,
	}
}

// calibrate runs pt and returns its saturating throughput: completed
// requests per second over the post-warmup completion window, the
// accounting every campaign point uses (overloadGoodput).
func calibrate(pt Point) (float64, error) {
	var recs []pool.Completion
	if _, _, err := pt.Run(func(c pool.Completion) { recs = append(recs, c) }); err != nil {
		return 0, err
	}
	capacity := overloadGoodput(recs)
	if capacity <= 0 {
		return 0, fmt.Errorf("%s: no completions to measure", pt.Label)
	}
	return capacity, nil
}

// faultName is a campaign row's fault column: the kind of the plan's one
// entry, or "none".
func faultName(plan fault.Plan) string {
	if len(plan) == 0 {
		return "none"
	}
	return plan[0].Kind.String()
}
