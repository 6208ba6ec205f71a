package pool

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// qosSnapshot extends the byte-identity snapshot with every per-tenant QoS
// observable, so the worker-count and scheduler matrices pin those too.
func qosSnapshot(s Stats) string {
	var b strings.Builder
	b.WriteString(snapshot(s))
	fmt.Fprintf(&b, "throttled=%d wthrottled=%d\n", s.Throttled, s.WritesThrottled)
	for i, ts := range s.PerTenant {
		fmt.Fprintf(&b, "tenant%d %s w=%v rate=%v burst=%d slo=%v n=%d p50=%v p99=%v p999=%v bytes=%d done=%d thr=%d shed=%d exp=%d fail=%d overslo=%d viol=%v\n",
			i, ts.Name, ts.Weight, ts.RatePerSec, ts.Burst, ts.SLOP99,
			ts.Lat.Count(), ts.Lat.Percentile(50), ts.Lat.Percentile(99), ts.Lat.Percentile(99.9),
			ts.Meter.Bytes(), ts.Completed, ts.Throttled, ts.Shed, ts.Expired, ts.Failed,
			ts.OverSLO, ts.SLOViolated())
	}
	return b.String()
}

// TestQoSConfigValidation: degenerate QoS contracts are rejected and legal
// zero values take their documented defaults.
func TestQoSConfigValidation(t *testing.T) {
	bad := []QoSConfig{
		{Isolation: true},
		{Tenants: []TenantQoS{{Weight: -1}}},
		{Tenants: []TenantQoS{{Weight: math.NaN()}}},
		{Tenants: []TenantQoS{{Weight: math.Inf(1)}}},
		{Tenants: []TenantQoS{{Weight: 1e-9}}}, // weight x quantum < 1 byte credit
		{Tenants: []TenantQoS{{RatePerSec: -1}}},
		{Tenants: []TenantQoS{{RatePerSec: math.NaN()}}},
		{Tenants: []TenantQoS{{Burst: -1}}},
		{Tenants: []TenantQoS{{SLOP99: -1}}},
	}
	for i, q := range bad {
		if err := q.validate(); err == nil {
			t.Fatalf("bad QoS config %d accepted: %+v", i, q)
		}
	}
	q := QoSConfig{Isolation: true, Tenants: []TenantQoS{{RatePerSec: 1000}, {}}}
	if err := q.validate(); err != nil {
		t.Fatalf("legal config rejected: %v", err)
	}
	if q.Tenants[0].Weight != 1 || q.Tenants[0].Burst != 8 {
		t.Fatalf("defaults not applied: %+v", q)
	}
	if q.Tenants[1].Burst != 0 {
		t.Fatalf("unpoliced tenant grew a burst: %+v", q.Tenants[1])
	}
}

// TestQoSFromTenants: the openloop QoS contract fields map onto the pool
// block field-for-field.
func TestQoSFromTenants(t *testing.T) {
	q := QoSFromTenants([]openloop.Tenant{
		{Name: "hot", QoSWeight: 2, LimitPerSec: 5e4, Burst: 16, SLOP99: sim.Millisecond},
		{Name: "light"},
	}, true)
	if !q.Isolation || len(q.Tenants) != 2 {
		t.Fatalf("mapping lost shape: %+v", q)
	}
	want := TenantQoS{Name: "hot", Weight: 2, RatePerSec: 5e4, Burst: 16, SLOP99: sim.Millisecond}
	if q.Tenants[0] != want {
		t.Fatalf("tenant 0 mapped to %+v, want %+v", q.Tenants[0], want)
	}
	if q.Tenants[1] != (TenantQoS{Name: "light"}) {
		t.Fatalf("tenant 1 mapped to %+v", q.Tenants[1])
	}
}

// drrMix is one seeded tenant mix for the fairness property tests.
type drrMix struct {
	weights []float64
}

// seededMixes draws deterministic tenant mixes (2-4 tenants, integer DRR
// weights 1-8) for the table-driven fairness properties.
func seededMixes(n int) []drrMix {
	rng := sim.NewRand(sim.SplitSeed(7, "qos/mixes"))
	out := make([]drrMix, n)
	for i := range out {
		k := 2 + rng.Intn(3)
		w := make([]float64, k)
		for j := range w {
			w[j] = float64(1 + rng.Intn(8))
		}
		out[i] = drrMix{weights: w}
	}
	return out
}

// qosTenantsFromWeights builds an unpoliced QoS block with the given DRR
// weights.
func qosTenantsFromWeights(weights []float64) []TenantQoS {
	ts := make([]TenantQoS, len(weights))
	for i, w := range weights {
		ts[i] = TenantQoS{Name: fmt.Sprintf("t%d", i), Weight: w}
	}
	return ts
}

// drrDrive submits `per` cached single-page reads for every tenant whose
// submit[ti] is true (offset depends only on (round, tenant) so variants
// share byte-identical traffic for the tenants they have in common), then
// steps the plane until `target` requests complete (or exactly `epochs`
// epochs when epochs > 0), returning per-tenant completion counts.
func drrDrive(t *testing.T, p *Pool, nTen, per int, submit []bool, target, epochs int) []int {
	t.Helper()
	foot := p.CachedFootprint()
	for j := 0; j < per; j++ {
		for ti := 0; ti < nTen; ti++ {
			if !submit[ti] {
				continue
			}
			off := (int64(j*nTen+ti) * 4096) % foot
			if _, err := p.Submit(openloop.Request{Tenant: ti, Off: off, Len: 4096}); err != nil {
				t.Fatalf("submit tenant %d round %d: %v", ti, j, err)
			}
		}
	}
	counts := make([]int, nTen)
	done := 0
	for i := 0; ; i++ {
		if epochs > 0 {
			if i >= epochs {
				break
			}
		} else if done >= target {
			break
		}
		if p.sup.Epochs >= 1<<16 {
			t.Fatalf("wedged: %d completions after %d epochs", done, p.sup.Epochs)
		}
		p.Step()
		for _, c := range p.Poll(nil, 0) {
			if c.Outcome != OutcomeCompleted {
				t.Fatalf("request %d finished %v: %v", c.ID, c.Outcome, c.Err)
			}
			counts[c.Tenant]++
			done++
		}
	}
	return counts
}

// finish drains the plane and checks conservation.
func finish(t *testing.T, p *Pool) Stats {
	t.Helper()
	if err := Drain(p); err != nil {
		t.Fatal(err)
	}
	p.Poll(nil, 0)
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	return p.Stats()
}

// TestDRRWeightedShares (property): for seeded tenant mixes, every tenant
// keeping a backlog receives a completed-request share within tolerance of
// its normalized DRR weight.
func TestDRRWeightedShares(t *testing.T) {
	for m, mix := range seededMixes(4) {
		mix := mix
		t.Run(fmt.Sprintf("mix%d_w%v", m, mix.weights), func(t *testing.T) {
			n := len(mix.weights)
			p := newTestPool(t, 1, 1, 2, 4096, noProbe, func(c *Config) {
				c.QoS = QoSConfig{Isolation: true, Tenants: qosTenantsFromWeights(mix.weights)}
			})
			all := make([]bool, n)
			for i := range all {
				all[i] = true
			}
			// 240 requests per tenant, measure the first ~160 completions:
			// even the heaviest share cannot drain its backlog before the
			// measurement window closes, so shares reflect pure DRR.
			counts := drrDrive(t, p, n, 240, all, 160, 0)
			total, wsum := 0, 0.0
			for _, c := range counts {
				total += c
			}
			for _, w := range mix.weights {
				wsum += w
			}
			for ti, c := range counts {
				got := float64(c) / float64(total)
				want := mix.weights[ti] / wsum
				if math.Abs(got-want) > 0.05 {
					t.Fatalf("tenant %d share %.3f, want %.3f +/- 0.05 (counts %v, weights %v)",
						ti, got, want, counts, mix.weights)
				}
			}
			finish(t, p)
		})
	}
}

// TestDRRWorkConservation (property): removing one tenant's traffic does not
// idle its share — the channel delivers the same throughput and the busy
// tenants split it by their renormalized weights.
func TestDRRWorkConservation(t *testing.T) {
	weights := []float64{4, 2, 1}
	// 70 epochs drains ~600 requests: the two-tenant run's 800 submissions
	// keep a backlog the whole window, so equal totals mean the idle share
	// really was redistributed rather than both runs simply finishing.
	const per, epochs = 400, 70
	run := func(submit []bool) (counts []int, total int) {
		p := newTestPool(t, 1, 1, 2, 4096, noProbe, func(c *Config) {
			c.QoS = QoSConfig{Isolation: true, Tenants: qosTenantsFromWeights(weights)}
		})
		counts = drrDrive(t, p, len(weights), per, submit, 0, epochs)
		finish(t, p)
		for _, c := range counts {
			total += c
		}
		return counts, total
	}
	_, allTotal := run([]bool{true, true, true})
	counts, busyTotal := run([]bool{true, true, false})
	if counts[2] != 0 {
		t.Fatalf("idle tenant completed %d requests", counts[2])
	}
	// Work conservation: the idle tenant's share was redistributed, not
	// idled — identical epochs deliver (almost) identical total service.
	if lo := allTotal * 95 / 100; busyTotal < lo {
		t.Fatalf("idle tenant stalled the channel: %d completions vs %d all-busy", busyTotal, allTotal)
	}
	// And the busy tenants split it 4:2.
	for ti, want := range []float64{4.0 / 6, 2.0 / 6} {
		got := float64(counts[ti]) / float64(busyTotal)
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("tenant %d share %.3f, want %.3f +/- 0.05 (counts %v)", ti, got, want, counts)
		}
	}
}

// TestTokenBucketPolicing: admissions from a full bucket stop exactly at the
// burst depth with typed ErrTenantThrottled, boundary refills restore
// admissions at the configured rate, and every throttle is conserved and
// attributed (pool, tenant, and no Completion record).
func TestTokenBucketPolicing(t *testing.T) {
	const burst = 6
	const rate = 2e5
	p := newTestPool(t, 1, 1, 1, 4096, noProbe, func(c *Config) {
		c.QoS = QoSConfig{Isolation: true,
			Tenants: []TenantQoS{{Name: "t", RatePerSec: rate, Burst: burst}}}
	})
	foot := p.CachedFootprint()
	submitN := func(n int, j0 int) (admitted, throttled int) {
		for j := 0; j < n; j++ {
			off := (int64(j0+j) * 4096) % foot
			_, err := p.Submit(openloop.Request{Tenant: 0, Off: off, Len: 4096})
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, ErrTenantThrottled):
				throttled++
			default:
				t.Fatalf("submit %d: unexpected error %v", j, err)
			}
		}
		return
	}
	// Burst from a full bucket: exactly `burst` admitted, the rest refused.
	adm, thr := submitN(burst+4, 0)
	if adm != burst || thr != 4 {
		t.Fatalf("cold burst admitted %d / throttled %d, want %d / 4", adm, thr, burst)
	}
	// Same boundary, bucket empty: nothing more gets in.
	if adm, thr = submitN(1, 100); adm != 0 || thr != 1 {
		t.Fatalf("post-burst admitted %d, want 0", adm)
	}
	// Refill: rate x k epochs of tokens accrue (capped at burst).
	const k = 3
	for i := 0; i < k; i++ {
		p.Step()
	}
	refill := rate * float64(p.Epoch()) / float64(sim.Second) * k
	wantLo := int(math.Min(refill, burst)) - 1
	if wantLo < 1 {
		wantLo = 1
	}
	adm, _ = submitN(burst+2, 200)
	if adm < wantLo || adm > int(math.Min(refill, burst))+1 {
		t.Fatalf("after %d epochs admitted %d, want ~min(%.2f, %d)", k, adm, refill, burst)
	}
	s := finish(t, p)
	if s.Throttled == 0 || s.Throttled != s.PerTenant[0].Throttled {
		t.Fatalf("throttle attribution: pool %d, tenant %d", s.Throttled, s.PerTenant[0].Throttled)
	}
	if s.Completed != s.Submitted-s.Throttled {
		t.Fatalf("conservation: %d completed of %d submitted, %d throttled",
			s.Completed, s.Submitted, s.Throttled)
	}
	if s.PerTenant[0].Completed != s.Completed {
		t.Fatalf("tenant completion attribution: %d vs %d", s.PerTenant[0].Completed, s.Completed)
	}
}

// TestBucketRateConvergence (property): over seeded (rate, burst) contracts,
// a tenant offering far above its bucket rate completes at most burst +
// rate x span requests — the policing bound — while an unpoliced tenant in
// the same pool is untouched.
func TestBucketRateConvergence(t *testing.T) {
	rng := sim.NewRand(sim.SplitSeed(7, "qos/buckets"))
	for c := 0; c < 3; c++ {
		burst := 4 + rng.Intn(12)
		epochsPerToken := 2 + rng.Intn(4)
		t.Run(fmt.Sprintf("case%d_b%d_e%d", c, burst, epochsPerToken), func(t *testing.T) {
			p := newTestPool(t, 1, 1, 1, 4096, noProbe, func(cfg *Config) {
				rate := float64(sim.Second) / (float64(cfg.Member.TREFI) * float64(epochsPerToken))
				cfg.QoS = QoSConfig{Isolation: true, Tenants: []TenantQoS{
					{Name: "policed", RatePerSec: rate, Burst: burst},
					{Name: "free"},
				}}
			})
			foot := p.CachedFootprint()
			const per, epochs = 200, 120
			adm := 0
			for j := 0; j < per; j++ {
				for ti := 0; ti < 2; ti++ {
					// Offered in bursts of 4 per tenant every 2 epochs.
					if j%4 == 0 && j > 0 {
						p.Step()
						p.Step()
					}
					off := (int64(j*2+ti) * 4096) % foot
					_, err := p.Submit(openloop.Request{Tenant: ti, Off: off, Len: 4096})
					if err == nil && ti == 0 {
						adm++
					} else if err != nil && !errors.Is(err, ErrTenantThrottled) {
						t.Fatal(err)
					} else if err != nil && ti == 1 {
						t.Fatalf("unpoliced tenant throttled: %v", err)
					}
				}
			}
			s := finish(t, p)
			// Policing bound: burst (initial bucket) + one token per
			// epochsPerToken elapsed epochs, +1 slack for float rounding.
			bound := uint64(burst+s.Epochs/epochsPerToken) + 1
			if got := s.PerTenant[0].Completed; got > bound {
				t.Fatalf("policed tenant completed %d > bound %d (epochs %d)", got, bound, s.Epochs)
			}
			if s.PerTenant[1].Throttled != 0 || s.PerTenant[1].Completed != per {
				t.Fatalf("free tenant: %d completed, %d throttled, want %d / 0",
					s.PerTenant[1].Completed, s.PerTenant[1].Throttled, per)
			}
		})
	}
}

// TestQoSQuietGating: a fragment waiting in a tenant FIFO must disable
// quiet-epoch batching (it needs the very next boundary's DRR fill), and a
// drained QoS pool must batch again — token refills alone are no event.
func TestQoSQuietGating(t *testing.T) {
	p := newTestPool(t, 1, 1, 1, 4096, noProbe, func(c *Config) {
		c.QoS = QoSConfig{Isolation: true,
			Tenants: []TenantQoS{{Name: "t", RatePerSec: 1e5, Burst: 4}}}
	})
	if k := p.QuietEpochs(64); k != 64 {
		t.Fatalf("empty QoS pool quiet for %d epochs, want 64 (buckets must not bound batching)", k)
	}
	if _, err := p.Submit(openloop.Request{Tenant: 0, Off: 0, Len: 4096}); err != nil {
		t.Fatal(err)
	}
	if k := p.QuietEpochs(64); k != 0 {
		t.Fatalf("held tenant-FIFO fragment left the pool quiet for %d epochs", k)
	}
	finish(t, p)
	if k := p.QuietEpochs(64); k != 64 {
		t.Fatalf("drained QoS pool quiet for %d epochs, want 64", k)
	}
}

// qosTestTenants is the shared noisy-neighbor shape: one zipfian-hot tenant
// with a large arrival share and a bucket at a quarter of its offered rate,
// vs three uniform light tenants with p99 SLOs.
func qosTestTenants(foot int64, rate float64, slo sim.Duration) []openloop.Tenant {
	hotFoot := foot / 2
	lightFoot := (foot - hotFoot) / 3
	ts := []openloop.Tenant{{
		Name: "hot", Dist: openloop.Zipfian, Weight: 12, ReadPct: 80,
		Footprint: hotFoot,
		// Offered 0.8 x rate; bucket at a quarter of that.
		LimitPerSec: rate * 0.8 / 4, SLOP99: slo,
	}}
	for i := 0; i < 3; i++ {
		ts = append(ts, openloop.Tenant{
			Name: fmt.Sprintf("light%d", i), Dist: openloop.Uniform, Weight: 1, ReadPct: 80,
			Footprint: lightFoot, Offset: hotFoot + int64(i)*lightFoot,
			SLOP99: slo,
		})
	}
	return ts
}

// qosCapacity measures the small test pool's saturated completion rate
// (requests per second), the reference the starvation regression prices its
// offered load against.
func qosCapacity(t *testing.T) float64 {
	t.Helper()
	p := newTestPool(t, 3, 1, 2, 4096)
	gcfg := openloop.Config{
		Seed: 9, RatePerSec: 0,
		Tenants: []openloop.Tenant{
			{Name: "cal", Dist: openloop.Uniform, ReadPct: 80, Footprint: p.CachedFootprint()},
		},
	}
	s := runPool(t, p, gcfg, 360)
	sec := float64(s.Meter.Elapsed()) / float64(sim.Second)
	if sec <= 0 {
		t.Fatal("calibration span empty")
	}
	return float64(s.Meter.Ops()) / sec
}

// TestQoSStarvationRegression: a zipfian-hot tenant offering 4x its bucket
// rate (1.6x pool capacity) must not push any light tenant's p99 past the
// pinned bound when isolation is on — and the same traffic with isolation
// off must blow a light tenant past it, proving the mechanism (not the
// workload) holds the bound.
func TestQoSStarvationRegression(t *testing.T) {
	capacity := qosCapacity(t)
	rate := 2 * capacity // hot 1.6x capacity, lights 0.4x; isolated load 0.8x
	const count = 600
	// The pinned bound: the isolated run's light tails sit at 5-7us (and
	// the runs are deterministic, so drift means a real scheduling change)
	// while unpoliced 2x-capacity overload pushes them past 70us as waits
	// grow with the backlog. 25us splits the gap with ~4x margin each way.
	bound := 25 * sim.Microsecond
	run := func(isolation bool) Stats {
		p := newTestPool(t, 3, 1, 2, 4096, func(c *Config) {
			c.QoS = QoSFromTenants(qosTestTenants(1, rate, bound), isolation)
		})
		gcfg := openloop.Config{
			Seed: 13, RatePerSec: rate,
			Tenants: qosTestTenants(p.CachedFootprint(), rate, bound),
		}
		return runPool(t, p, gcfg, count)
	}
	iso := run(true)
	for i, ts := range iso.PerTenant {
		t.Logf("iso  tenant %d %s: n=%d p99=%v thr=%d", i, ts.Name, ts.Lat.Count(), ts.P99(), ts.Throttled)
	}
	if iso.Throttled == 0 || iso.PerTenant[0].Throttled != iso.Throttled {
		t.Fatalf("hot tenant at 4x bucket rate throttled %d times (tenant %d)",
			iso.Throttled, iso.PerTenant[0].Throttled)
	}
	for i, ts := range iso.PerTenant[1:] {
		if p99 := ts.P99(); p99 > bound {
			t.Fatalf("isolation on: light tenant %d p99 %v over pinned bound %v", i, p99, bound)
		}
		if ts.SLOViolated() {
			t.Fatalf("isolation on: light tenant %d violated its SLO", i)
		}
		if ts.Throttled != 0 {
			t.Fatalf("isolation on: unpoliced light tenant %d throttled %d times", i, ts.Throttled)
		}
	}
	noIso := run(false)
	for i, ts := range noIso.PerTenant {
		t.Logf("free tenant %d %s: n=%d p99=%v thr=%d", i, ts.Name, ts.Lat.Count(), ts.P99(), ts.Throttled)
	}
	if noIso.Throttled != 0 {
		t.Fatalf("isolation off still throttled %d requests", noIso.Throttled)
	}
	worst := sim.Duration(0)
	for _, ts := range noIso.PerTenant[1:] {
		if p99 := ts.P99(); p99 > worst {
			worst = p99
		}
	}
	if worst <= bound {
		t.Fatalf("isolation off: worst light p99 %v under the bound %v — the regression test lost its teeth", worst, bound)
	}
}

// TestQoSWorkerCountIdentical: the full QoS machinery (buckets throttling,
// DRR dispatch, per-tenant stats) is byte-identical at 1/2/8 workers with
// the lookahead scheduler on and off — StepQuiet's span refill must match
// Step's per-epoch float sequence bit for bit.
func TestQoSWorkerCountIdentical(t *testing.T) {
	capacity := 1e5 // any fixed rate scale works for identity; keep it brisk
	run := func(workers int, lockstep, isolation bool) string {
		p := newTestPool(t, 3, 1, workers, 4096, func(c *Config) {
			c.DisableLookahead = lockstep
			c.QoS = QoSFromTenants(qosTestTenants(1, capacity, sim.Millisecond), isolation)
		})
		gcfg := openloop.Config{
			Seed: 21, RatePerSec: capacity,
			Tenants: qosTestTenants(p.CachedFootprint(), capacity, sim.Millisecond),
		}
		return qosSnapshot(runPool(t, p, gcfg, 300))
	}
	type variant struct {
		workers  int
		lockstep bool
	}
	variants := []variant{{1, false}, {2, false}, {8, false}, {1, true}, {2, true}, {8, true}}
	if testing.Short() {
		variants = []variant{{1, false}, {2, true}}
	}
	for _, isolation := range []bool{true, false} {
		var base string
		for i, v := range variants {
			got := run(v.workers, v.lockstep, isolation)
			if i == 0 {
				base = got
				continue
			}
			if got != base {
				t.Fatalf("isolation=%v workers=%d lockstep=%v diverged:\n--- base ---\n%s\n--- got ---\n%s",
					isolation, v.workers, v.lockstep, base, got)
			}
		}
	}
}
