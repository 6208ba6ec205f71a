// Package openloop generates multi-tenant open-loop request streams for the
// pooled (multi-channel) experiments. Closed-loop generators like
// internal/workload/fio throttle themselves to the device — each thread waits
// for its op to complete — which hides queueing: a saturated device just
// makes the generator slow down. Production front-ends do not wait; requests
// arrive on their own clock and pile up. This package models that: a Poisson
// arrival process at a configured aggregate rate, fanned across tenants with
// weighted shares, each tenant drawing offsets from its own distribution
// (uniform, or zipfian for the hot-key skew real multi-tenant traffic has).
//
// The whole stream is a pure function of Config.Seed: one sim.Rand drives
// every draw in a fixed order (interarrival, tenant, op type, offset), so a
// stream replays exactly and two generators with the same seed emit identical
// requests — the determinism contract the pool's parallel epoch engine and
// its byte-identical-output tests build on.
package openloop

import (
	"errors"
	"fmt"
	"math"

	"nvdimmc/internal/sim"
)

// Typed validation sentinels: degenerate tenant configs used to surface as
// ad-hoc strings (or, for a zero weight mixed with nonzero ones, silently
// become an equal share), which made a sweep arithmetic bug look like a
// plausible traffic mix. Callers can now errors.Is the class.
var (
	// ErrTenantWeight: a tenant weight is negative, NaN, Inf, or zero in a
	// mix where other tenants carry explicit nonzero weights (an all-zero
	// mix still defaults to equal shares).
	ErrTenantWeight = errors.New("openloop: invalid tenant weight")
	// ErrWeightSum: the tenant weights sum to a non-positive or non-finite
	// total, so shares cannot be normalized.
	ErrWeightSum = errors.New("openloop: degenerate tenant weight sum")
	// ErrTenantQoS: a tenant's QoS contract field (QoSWeight, LimitPerSec,
	// Burst, SLOP99) is out of range.
	ErrTenantQoS = errors.New("openloop: invalid tenant QoS contract")
)

// Dist selects a tenant's offset distribution.
type Dist int

// Supported distributions.
const (
	// Uniform draws every block in the footprint with equal probability.
	Uniform Dist = iota
	// Zipfian draws block ranks from a bounded zipf(theta) law (Gray et al.,
	// "Quickly Generating Billion-Record Synthetic Databases"): rank 0 is the
	// hottest block. Theta defaults to 0.99, the YCSB constant.
	Zipfian
)

// Tenant is one traffic source sharing the pool.
type Tenant struct {
	Name string
	Dist Dist
	// Theta is the zipfian skew (ignored for Uniform; default 0.99).
	Theta float64
	// Weight is this tenant's share of arrivals (normalized over tenants).
	Weight float64
	// ReadPct is the read percentage of this tenant's ops. Zero defaults to
	// 100 (read-only); pass a negative value for a write-only tenant.
	ReadPct int
	// BlockSize is the tenant's op size in bytes (default 4096).
	BlockSize int
	// Footprint is the tenant's addressable span in bytes; offsets fall in
	// [Offset, Offset+Footprint), aligned to BlockSize.
	Footprint int64
	// Offset is the tenant's base address in the pooled space.
	Offset int64
	// Socket is the tenant's home socket in a NUMA fabric: the socket its
	// requests are submitted *from*, so fabric addresses outside that
	// socket's span pay the cross-socket interconnect both ways. Single-pool
	// consumers ignore it. Negative values are rejected by New.
	Socket int

	// The QoS contract fields below describe the tenant's service terms to
	// the pooled front end (pool.QoSFromTenants); the generator itself
	// ignores them — they shape scheduling, not traffic.

	// QoSWeight is the tenant's DRR service share in the pool's dispatch
	// (distinct from Weight, its share of *arrivals*; a noisy neighbor has a
	// large arrival share and an ordinary service share). Zero defaults to 1.
	QoSWeight float64
	// LimitPerSec is the tenant's token-bucket rate in requests per
	// simulated second (zero: unpoliced).
	LimitPerSec float64
	// Burst is the token-bucket depth in requests (zero defaults in the
	// pool when rate-limited).
	Burst int
	// SLOP99 is the tenant's target p99 latency (zero: untracked).
	SLOP99 sim.Duration
}

// Config parameterizes a stream.
type Config struct {
	// Seed makes the stream reproducible; zero gets a fixed default.
	Seed uint64
	// RatePerSec is the aggregate arrival rate in ops per simulated second.
	// Zero means "saturating": arrivals spaced 1 ns apart, an offered load
	// beyond any channel count this repo configures. Negative (and NaN/Inf)
	// rates are rejected by New — they used to silently saturate, hiding a
	// sweep arithmetic bug as a bogus overload result.
	RatePerSec float64
	// Deadline, when positive, stamps every generated request with this
	// completion budget (relative to its arrival). Zero leaves requests
	// deadline-free; negative is rejected.
	Deadline sim.Duration
	Tenants  []Tenant
}

// Request is one arrival.
type Request struct {
	// Arrival is the offset of the arrival instant from stream start.
	Arrival sim.Duration
	// Deadline is the completion budget relative to Arrival (0 = none).
	Deadline sim.Duration
	// Tenant indexes Config.Tenants.
	Tenant int
	// Socket is the submitting tenant's home socket (see Tenant.Socket).
	Socket int
	Off    int64
	Len    int
	Write  bool
}

// Generator emits the stream; it is infinite (callers bound by count or by
// arrival time).
type Generator struct {
	cfg     Config
	rng     *sim.Rand
	zip     []*zipf   // per-tenant, nil unless Zipfian
	cum     []float64 // cumulative normalized weights
	mean    sim.Duration
	now     sim.Duration
	capture func(Request)
}

// SetCapture installs fn as the generator's capture hook: every request Next
// returns is also passed to fn, in emission order, before the caller sees it.
// The hook observes — it must not mutate shared state the stream depends on —
// so a recorded run and an unrecorded run with the same seed emit identical
// requests. internal/replay's Recorder plugs in here to persist any live
// generator workload as a trace; nil removes the hook.
func (g *Generator) SetCapture(fn func(Request)) { g.capture = fn }

// New validates cfg and returns a generator positioned before the first
// arrival.
func New(cfg Config) (*Generator, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("openloop: no tenants")
	}
	if cfg.RatePerSec < 0 || math.IsNaN(cfg.RatePerSec) || math.IsInf(cfg.RatePerSec, 0) {
		return nil, fmt.Errorf("openloop: rate %v ops/s is not a rate (zero means saturating; negative/NaN/Inf is a config bug)",
			cfg.RatePerSec)
	}
	if cfg.Deadline < 0 {
		return nil, fmt.Errorf("openloop: deadline %d ps negative (zero disables deadlines)", int64(cfg.Deadline))
	}
	// Weight pass 1: classify before defaulting. A zero weight is legal only
	// when every weight is zero (the equal-share default); zero mixed with
	// explicit nonzero weights would silently grant the forgotten tenant a
	// full share — reject it typed instead.
	anyZero, anyNonzero := false, false
	for i := range cfg.Tenants {
		t := &cfg.Tenants[i]
		if t.Weight < 0 || math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
			return nil, fmt.Errorf("openloop: tenant %d weight %v is not a share (negative/NaN/Inf is a config bug): %w",
				i, t.Weight, ErrTenantWeight)
		}
		if t.Weight == 0 {
			anyZero = true
		} else {
			anyNonzero = true
		}
	}
	if anyZero && anyNonzero {
		for i := range cfg.Tenants {
			if cfg.Tenants[i].Weight == 0 {
				return nil, fmt.Errorf("openloop: tenant %d weight 0 in a weighted mix (give it an explicit share, or zero all weights for equal shares): %w",
					i, ErrTenantWeight)
			}
		}
	}
	total := 0.0
	for i := range cfg.Tenants {
		t := &cfg.Tenants[i]
		if t.Weight == 0 {
			t.Weight = 1
		}
		if t.QoSWeight < 0 || math.IsNaN(t.QoSWeight) || math.IsInf(t.QoSWeight, 0) {
			return nil, fmt.Errorf("openloop: tenant %d QoS weight %v (zero defaults to 1): %w", i, t.QoSWeight, ErrTenantQoS)
		}
		if t.LimitPerSec < 0 || math.IsNaN(t.LimitPerSec) || math.IsInf(t.LimitPerSec, 0) {
			return nil, fmt.Errorf("openloop: tenant %d limit %v req/s (zero disables policing): %w", i, t.LimitPerSec, ErrTenantQoS)
		}
		if t.Burst < 0 {
			return nil, fmt.Errorf("openloop: tenant %d burst %d negative: %w", i, t.Burst, ErrTenantQoS)
		}
		if t.SLOP99 < 0 {
			return nil, fmt.Errorf("openloop: tenant %d SLO p99 %d ps negative: %w", i, int64(t.SLOP99), ErrTenantQoS)
		}
		if t.BlockSize < 0 {
			return nil, fmt.Errorf("openloop: tenant %d block size %d negative (zero defaults to 4096)", i, t.BlockSize)
		}
		if t.Socket < 0 {
			return nil, fmt.Errorf("openloop: tenant %d home socket %d negative (zero is socket 0)", i, t.Socket)
		}
		if t.BlockSize == 0 {
			t.BlockSize = 4096
		}
		switch {
		case t.ReadPct == 0:
			t.ReadPct = 100
		case t.ReadPct < 0:
			t.ReadPct = 0
		case t.ReadPct > 100:
			return nil, fmt.Errorf("openloop: tenant %d read pct %d > 100", i, t.ReadPct)
		}
		if t.Footprint < int64(t.BlockSize) {
			return nil, fmt.Errorf("openloop: tenant %d footprint %d < block %d",
				i, t.Footprint, t.BlockSize)
		}
		if t.Theta == 0 {
			t.Theta = 0.99
		}
		if t.Dist == Zipfian && (t.Theta <= 0 || t.Theta >= 1) {
			return nil, fmt.Errorf("openloop: tenant %d theta %v outside (0,1)", i, t.Theta)
		}
		total += t.Weight
	}
	// Per-tenant weights are finite and positive by here, but their sum can
	// still overflow to +Inf (two 1e308 shares), leaving every normalized
	// share 0 or NaN.
	if total <= 0 || math.IsInf(total, 0) || math.IsNaN(total) {
		return nil, fmt.Errorf("openloop: tenant weights sum to %v: %w", total, ErrWeightSum)
	}
	g := &Generator{cfg: cfg, rng: sim.NewRand(cfg.Seed)}
	acc := 0.0
	for i := range cfg.Tenants {
		acc += cfg.Tenants[i].Weight / total
		g.cum = append(g.cum, acc)
		var z *zipf
		if cfg.Tenants[i].Dist == Zipfian {
			z = newZipf(cfg.Tenants[i].Footprint/int64(cfg.Tenants[i].BlockSize),
				cfg.Tenants[i].Theta)
		}
		g.zip = append(g.zip, z)
	}
	g.cum[len(g.cum)-1] = 1 // guard against float drift
	if cfg.RatePerSec > 0 {
		g.mean = sim.Duration(float64(sim.Second) / cfg.RatePerSec)
	} else {
		g.mean = 0 // saturating: fixed 1 ns spacing, no exponential draw
	}
	return g, nil
}

// Next returns the next arrival. The stream never ends.
func (g *Generator) Next() Request {
	// Draw order is fixed — interarrival, tenant, op type, offset — so adding
	// a tenant or changing a rate perturbs only what it must.
	if g.mean > 0 {
		u := g.rng.Float64()
		d := sim.Duration(-math.Log(1-u) * float64(g.mean))
		if d <= 0 {
			d = 1 // exponential draws can round below 1 ps; keep arrivals strict
		}
		g.now += d
	} else {
		g.now += sim.Nanosecond
	}
	ti := 0
	u := g.rng.Float64()
	for ti < len(g.cum)-1 && u >= g.cum[ti] {
		ti++
	}
	t := &g.cfg.Tenants[ti]
	write := g.rng.Intn(100) >= t.ReadPct
	blocks := t.Footprint / int64(t.BlockSize)
	var blk int64
	if z := g.zip[ti]; z != nil {
		blk = z.next(g.rng)
	} else {
		blk = g.rng.Int63n(blocks)
	}
	r := Request{
		Arrival:  g.now,
		Deadline: g.cfg.Deadline,
		Tenant:   ti,
		Socket:   t.Socket,
		Off:      t.Offset + blk*int64(t.BlockSize),
		Len:      t.BlockSize,
		Write:    write,
	}
	if g.capture != nil {
		g.capture(r)
	}
	return r
}

// zipf is the bounded zipfian rank generator of Gray et al.; rank 0 is the
// hottest item. Streams are stable across Go releases because they draw from
// sim.Rand, not math/rand.
type zipf struct {
	n              int64
	theta          float64
	alpha, zetan   float64
	eta, zetatheta float64
}

func newZipf(n int64, theta float64) *zipf {
	z := &zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zetatheta = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zetatheta/z.zetan)
	return z
}

// zeta returns sum_{i=1..n} 1/i^theta.
func zeta(n int64, theta float64) float64 {
	s := 0.0
	for i := int64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// next draws a rank in [0, n).
func (z *zipf) next(r *sim.Rand) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	k := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k < 0 {
		k = 0
	}
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// TopMass returns the analytic probability mass of the hottest k ranks under
// zipf(theta) over n items — the reference the skew sanity tests compare
// empirical streams against.
func TopMass(n, k int64, theta float64) float64 {
	if k > n {
		k = n
	}
	return zeta(k, theta) / zeta(n, theta)
}
