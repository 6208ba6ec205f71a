package experiments

import (
	"fmt"

	"nvdimmc/internal/core"
	"nvdimmc/internal/metrics"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/workload/openloop"
)

// Outcome is what a campaign point reads off its plane once the run has
// drained: the plane's terminal-outcome ledger (Completed, Shed, Expired,
// Failed, WritesLost, ...) and its request-latency histogram. Every
// campaign point embeds one, so the campaign totals are written once, on
// Campaign.
type Outcome struct {
	pool.Ledger
	Lat *metrics.Histogram
}

// Availability returns completed over submitted (0 before any request).
func (o Outcome) Availability() float64 {
	if o.Submitted == 0 {
		return 0
	}
	return float64(o.Completed) / float64(o.Submitted)
}

// outcome lets Campaign read the Outcome any row embeds.
func (o Outcome) outcome() Outcome { return o }

// Campaign is a campaign table: one row per point, each embedding the
// point's Outcome.
type Campaign[P interface{ outcome() Outcome }] struct {
	Rows []P
}

// Points returns the campaign size.
func (c Campaign[P]) Points() int { return len(c.Rows) }

// AckedLostTotal sums the write-conservation residual across the campaign:
// writes admitted but neither acked nor ended typed. The robustness claim
// is that it is zero at every point.
func (c Campaign[P]) AckedLostTotal() uint64 {
	return total(c.Rows, func(p P) uint64 { return p.outcome().WritesLost() })
}

// ShedTotal and ExpiredTotal sum the overload outcomes across the campaign.
func (c Campaign[P]) ShedTotal() uint64 {
	return total(c.Rows, func(p P) uint64 { return p.outcome().Shed })
}

func (c Campaign[P]) ExpiredTotal() uint64 {
	return total(c.Rows, func(p P) uint64 { return p.outcome().Expired })
}

// MinAvailability returns the campaign's worst per-point availability (0
// for an empty campaign).
func (c Campaign[P]) MinAvailability() float64 {
	if len(c.Rows) == 0 {
		return 0
	}
	min := 1.0
	for _, p := range c.Rows {
		if a := p.outcome().Availability(); a < min {
			min = a
		}
	}
	return min
}

// total sums f over rows; the campaign-specific totals use it too.
func total[P any, N int | uint64](rows []P, f func(P) N) N {
	var t N
	for _, p := range rows {
		t += f(p)
	}
	return t
}

// count returns how many rows match.
func count[P any](rows []P, match func(P) bool) int {
	n := 0
	for _, p := range rows {
		if match(p) {
			n++
		}
	}
	return n
}

// campaignPlane is what a campaign point runs on: a request plane (a pool
// or a NUMA fabric) that audits itself and keeps a latency histogram.
type campaignPlane interface {
	pool.Plane
	CheckHealth() error
	Latency() *metrics.Histogram
}

// runPoint is the one point runner: it drives n requests from gen through
// pl, handing every record to sink (nil discards them), audits the plane
// and returns its outcome. Any error carries the point's label.
func runPoint(label string, pl campaignPlane, gen *openloop.Generator, n int, sink func(pool.Completion)) (Outcome, error) {
	err := pool.RunOpenLoop(pl, gen, n, sink)
	if err == nil {
		err = pl.CheckHealth()
	}
	if err != nil {
		return Outcome{}, fmt.Errorf("%s: %w", label, err)
	}
	return Outcome{Ledger: pl.Ledger(), Lat: pl.Latency()}, nil
}

// campaignPool is the pool shape of the fault, overload, QoS and replay
// campaigns (and the numa campaign's per-socket template): 3 channels + 1
// hot spare of member, prefilled to 90% of the cache. It builds on one
// worker, as campaign points are the parallel axis
// (TestPoolFaultedWorkerCountIdentical covers the in-pool axis). Misses
// serialize on a member's driver (~10 epochs per completion), so the
// breaker window spans many epochs to gather samples.
func campaignPool(member core.Config, seed uint64, lockstep bool) pool.Config {
	return pool.Config{
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
	}
}

// campaignFootprint is the pool capacity rounded down to the interleave:
// the near-capacity working set the campaigns draw from.
func campaignFootprint(p *pool.Pool) int64 {
	foot := p.Capacity()
	return foot - foot%p.Cfg.Interleave
}

// calibrate runs reqs arrivals of the load gen shapes over the pool's
// campaign footprint through one pool built from cfg, audits it, and
// returns its saturating throughput: completed requests per second over
// the post-warmup completion window, the accounting every campaign point
// uses (overloadGoodput). Errors carry label.
func calibrate(label string, cfg pool.Config, reqs int, gen func(foot int64) openloop.Config) (float64, error) {
	p, err := pool.New(cfg)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", label, err)
	}
	g, err := openloop.New(gen(campaignFootprint(p)))
	if err != nil {
		return 0, err
	}
	var recs []pool.Completion
	if _, err := runPoint(label, p, g, reqs, func(c pool.Completion) { recs = append(recs, c) }); err != nil {
		return 0, err
	}
	capacity := overloadGoodput(recs)
	if capacity <= 0 {
		return 0, fmt.Errorf("%s: no completions to measure", label)
	}
	return capacity, nil
}
