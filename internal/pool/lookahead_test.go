package pool

import (
	"fmt"
	"math"
	"testing"

	"nvdimmc/internal/metrics"
	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
	"nvdimmc/internal/workload/openloop"
)

// noProbe pushes the health-probe tick far out so the bound under test is
// the only horizon in play.
func noProbe(c *Config) { c.ProbeEvery = 1 << 20 }

// TestPoolLookaheadIdenticalAcrossWorkers is the lookahead scheduler's
// contract: an idle-heavy rated load (mean inter-arrival well above the
// epoch, so both the member idle-warp and quiet-epoch batching engage)
// produces byte-identical stats with the scheduler on and off, at 1, 2 and
// 8 epoch workers, and the lookahead runs reach StepQuiet's closed-form
// EWMA replay. Runs unshortened so the -race lane checks the batched
// paths' barriers too.
func TestPoolLookaheadIdenticalAcrossWorkers(t *testing.T) {
	var snaps []string
	var labels []string
	for _, lockstep := range []bool{true, false} {
		for _, workers := range []int{1, 2, 8} {
			p := newTestPool(t, 6, 1, workers, 4096,
				func(c *Config) { c.DisableLookahead = lockstep })
			// ~100 us between arrivals vs a ~7.8 us epoch: idle-dominated.
			s := runPool(t, p, mixedTenants(p, 42, 1e4), 300)
			if s.Completed != 300 {
				t.Fatalf("lockstep=%v workers=%d: completed %d of 300",
					lockstep, workers, s.Completed)
			}
			// The compare must cover StepQuiet's closed-form EWMA replay.
			if n := p.ClosedFormFolds(); (n == 0) != lockstep {
				t.Fatalf("lockstep=%v workers=%d: %d channel-epochs folded in closed form",
					lockstep, workers, n)
			}
			snaps = append(snaps, snapshot(s))
			labels = append(labels, fmt.Sprintf("lockstep=%v workers=%d", lockstep, workers))
		}
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("scheduler mode changed output:\n--- %s ---\n%s--- %s ---\n%s",
				labels[0], snaps[0], labels[i], snaps[i])
		}
	}
}

// TestQuietEpochsProbeBound: the health-probe tick bounds a quiet batch only
// when a probe could act. On a fault-free pool whose members are all Up
// with no error growth every probe is a no-op, so a batch jumps probe
// epochs. Once one member is Suspect its probe advances a clean streak, and
// a batch may end on a probe epoch but never jump one.
func TestQuietEpochsProbeBound(t *testing.T) {
	p := newTestPool(t, 2, 1, 1, 4096) // ProbeEvery defaults to 4
	if k := p.QuietEpochs(1000); k != 1000 {
		t.Fatalf("healthy idle pool: QuietEpochs = %d, want 1000 (no-op probes jumped)", k)
	}
	p.health[1].state = StateSuspect
	if k := p.QuietEpochs(1000); k != 4 {
		t.Fatalf("suspect member: QuietEpochs = %d, want 4 (next probe)", k)
	}
	p.epochs = 3
	if k := p.QuietEpochs(1000); k != 1 {
		t.Fatalf("one epoch before probe: QuietEpochs = %d, want 1", k)
	}
	p.epochs = 4 // on a probe boundary: the next probe is a full period out
	if k := p.QuietEpochs(1000); k != 4 {
		t.Fatalf("on probe boundary: QuietEpochs = %d, want 4", k)
	}
	if k := p.QuietEpochs(1); k != 0 {
		t.Fatalf("limit 1: QuietEpochs = %d, want 0 (naive step)", k)
	}
}

// TestQuietEpochsProbeFailsClosed: each clause of probesIdle, broken alone
// on an otherwise healthy idle pool, brings the probe bound back. A
// quarantined member is never probed, so its counters bound nothing.
func TestQuietEpochsProbeFailsClosed(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   func(*Config)
		spoil func(*Pool)
	}{
		{"suspect member", nil, func(p *Pool) { p.health[1].state = StateSuspect }},
		{"driver error growth", nil, func(p *Pool) { p.Member(0).Driver.Counters().Inc(nvdc.CtrAckTimeout) }},
		{"fragment error growth", nil, func(p *Pool) { p.health[1].fragErrs++ }},
		{"auditor violation", nil, func(p *Pool) {
			a := p.Member(1).Auditor
			a.Record(trace.Event{At: 0, Kind: trace.KindOther}) // time runs backwards
			if a.ViolationCount() == 0 {
				t.Fatal("backwards event logged no violation")
			}
		}},
		{"armed fault registry", func(c *Config) { c.FaultSeed = 9 }, func(p *Pool) {
			if p.Member(0).Faults == nil {
				t.Fatal("FaultSeed attached no registry")
			}
		}},
		{"detector bit errors", nil, func(p *Pool) { p.Member(0).Detector.BitErrorRate = 1e-9 }},
	} {
		var mut []func(*Config)
		if c.cfg != nil {
			mut = append(mut, c.cfg)
		}
		p := newTestPool(t, 2, 1, 1, 4096, mut...)
		c.spoil(p)
		if k := p.QuietEpochs(1000); k != 4 {
			t.Errorf("%s: QuietEpochs = %d, want 4 (the probe could act)", c.name, k)
		}
	}
	p := newTestPool(t, 2, 1, 1, 4096)
	p.health[0].state = StateQuarantined
	p.health[0].fragErrs++
	if k := p.QuietEpochs(1000); k != 1000 {
		t.Fatalf("quarantined member with error growth: QuietEpochs = %d, want 1000", k)
	}
}

// TestStepQuietTripsReadyBreaker: a closed breaker whose window already
// holds a tripping sample set trips at its window-end tick with no new
// observation. A quiet span may cover that tick. StepQuiet replays the trip
// there and leaves the pool exactly where the lockstep twin's Steps do.
// The pool no longer vouches for a steady Probe snapshot meanwhile, because
// BreakersOpen is about to move.
func TestStepQuietTripsReadyBreaker(t *testing.T) {
	twin := func(lockstep bool) *Pool {
		p := newTestPool(t, 2, 1, 1, 4096, func(c *Config) {
			c.BreakerLatency = 1 // every completion counts as a failure
			c.BreakerWindow = 32
			c.BreakerMinSamples = 1
			c.BreakerCooldown = 1 << 10
			c.DisableLookahead = lockstep
		})
		if _, err := p.Submit(openloop.Request{Len: 4096}); err != nil {
			t.Fatal(err)
		}
		for !p.Quiesced() {
			p.Step()
		}
		return p
	}
	a, b := twin(false), twin(true)
	brk := a.chans[0].brk
	if brk.state != breakerClosed || !brk.tripReady() || brk.winLeft < 2 {
		t.Fatalf("breaker %s tripReady=%v winLeft=%d, want closed, ready, >= 2 epochs to the window end",
			brk.state, brk.tripReady(), brk.winLeft)
	}
	if a.ProbeSteady() {
		t.Fatal("ProbeSteady with a trip-ready breaker")
	}
	k := a.QuietEpochs(1000)
	if k <= brk.winLeft {
		t.Fatalf("QuietEpochs = %d, want a span past the window end %d epochs out", k, brk.winLeft)
	}
	a.StepQuiet(k)
	for i := 0; i < k; i++ {
		b.Step()
	}
	if a.chans[0].ctr.Get("breaker-trip") != 1 || brk.state != breakerOpen {
		t.Fatalf("breaker %s after %d trips, want open after one", brk.state, a.chans[0].ctr.Get("breaker-trip"))
	}
	if sa, sb := snapshot(a.Stats()), snapshot(b.Stats()); sa != sb {
		t.Fatalf("quiet span diverged from lockstep:\n--- batched ---\n%s--- stepped ---\n%s", sa, sb)
	}
	if oa, ob := fmt.Sprintf("%+v", a.Occupancy()), fmt.Sprintf("%+v", b.Occupancy()); oa != ob || a.Now() != b.Now() {
		t.Fatalf("batched %s at %v, stepped %s at %v", oa, a.Now(), ob, b.Now())
	}
}

// TestQuietEpochsRetryReadyBound: a backoff entry's ready epoch bounds the
// batch so the promoting step runs at exactly the epoch the naive scheduler
// would promote it; a canceled entry disables batching entirely (its sweep
// is due at the very next boundary).
func TestQuietEpochsRetryReadyBound(t *testing.T) {
	p := newTestPool(t, 2, 1, 1, 4096, noProbe)
	p.retries = append(p.retries, retryEntry{f: &fragment{req: &request{}}, ready: 7})
	if k := p.QuietEpochs(1000); k != 6 {
		t.Fatalf("retry ready at epoch 7: QuietEpochs = %d, want 6", k)
	}
	p.retries[0].ready = 1
	if k := p.QuietEpochs(1000); k != 0 {
		t.Fatalf("retry due next step: QuietEpochs = %d, want 0", k)
	}
	p.retries[0].ready = 7
	p.retries[0].f.req.canceled = true
	if k := p.QuietEpochs(1000); k != 0 {
		t.Fatalf("canceled retry pending sweep: QuietEpochs = %d, want 0", k)
	}
}

// TestQuietEpochsDeadlineBound: a held-back request's absolute deadline
// bounds the batch at the epoch boundary where the naive scheduler would
// first sweep it; an already-expired deadline disables batching.
func TestQuietEpochsDeadlineBound(t *testing.T) {
	p := newTestPool(t, 2, 1, 1, 4096, noProbe)
	e := p.Epoch()
	req := &request{deadline: p.now.Add(5*e + 1)}
	p.retries = append(p.retries, retryEntry{f: &fragment{req: req}, ready: 1 << 20})
	if k := p.QuietEpochs(1000); k != 6 {
		t.Fatalf("deadline just past boundary 5: QuietEpochs = %d, want 6", k)
	}
	req.deadline = p.now.Add(3 * e) // exactly on a boundary
	if k := p.QuietEpochs(1000); k != 3 {
		t.Fatalf("deadline on boundary 3: QuietEpochs = %d, want 3", k)
	}
	p.now = p.now.Add(e)
	req.deadline = p.now
	if k := p.QuietEpochs(1000); k != 0 {
		t.Fatalf("expired deadline: QuietEpochs = %d, want 0", k)
	}
}

// TestQuietEpochsBreakerBound: an open breaker's cooldown expiry (the
// Open -> HalfOpen transition) bounds the batch. Closed and half-open
// breakers do not: their per-epoch ticks are replayed exactly (a closed
// window with zero samples can never trip; half-open ticks are no-ops).
func TestQuietEpochsBreakerBound(t *testing.T) {
	p := newTestPool(t, 2, 1, 1, 4096, noProbe)
	b := p.chans[0].brk
	b.state = breakerOpen
	b.cooldown = 3
	if k := p.QuietEpochs(1000); k != 3 {
		t.Fatalf("open breaker, cooldown 3: QuietEpochs = %d, want 3", k)
	}
	b.state = breakerHalfOpen
	if k := p.QuietEpochs(1000); k != 1000 {
		t.Fatalf("half-open breaker: QuietEpochs = %d, want 1000 (no bound)", k)
	}
	b.state = breakerClosed
	if k := p.QuietEpochs(1000); k != 1000 {
		t.Fatalf("closed breaker: QuietEpochs = %d, want 1000 (no bound)", k)
	}
}

// TestQuietEpochsWorkDisables: any held, queued or inflight fragment, any
// running rebuild, or the DisableLookahead knob itself forces the naive
// per-epoch path.
func TestQuietEpochsWorkDisables(t *testing.T) {
	p := newTestPool(t, 2, 1, 1, 4096, noProbe)
	p.chans[1].inflight = 1
	if k := p.QuietEpochs(1000); k != 0 {
		t.Fatalf("inflight fragment: QuietEpochs = %d, want 0", k)
	}
	p.chans[1].inflight = 0
	p.rebuilds = append(p.rebuilds, &rebuildJob{})
	if k := p.QuietEpochs(1000); k != 0 {
		t.Fatalf("running rebuild: QuietEpochs = %d, want 0", k)
	}
	p.rebuilds = nil
	p.Cfg.DisableLookahead = true
	if k := p.QuietEpochs(1000); k != 0 {
		t.Fatalf("lookahead disabled: QuietEpochs = %d, want 0", k)
	}
}

// TestQuietFoldMatchesFoldService: StepQuiet's EWMA replay (quietFold,
// which carries the quotient and remainder across a quiet span) leaves
// every channel's EWMA exactly where one foldService division per epoch
// leaves it: over random spans, with svcDone = 1, with svcDone so large the
// quotient is 0 and the cum <= 0 clamp fires (then grows past it), at a span
// that starts on svcBusyAt, and for a channel with no completed work. Then
// run(ch, k), which finishes a span in closed form, is held to k next calls.
func TestQuietFoldMatchesFoldService(t *testing.T) {
	type span struct {
		busyAt, now sim.Time
		epoch       sim.Duration
		done        int64
		ewma        sim.Duration
		k           int
	}
	const ep = 8 * sim.Microsecond
	spans := []span{
		{busyAt: 0, now: 40 * sim.Time(ep), epoch: ep, done: 1, ewma: 3000, k: 500},
		{busyAt: 0, now: 0, epoch: ep, done: 7, ewma: 0, k: 50},
		{busyAt: 1000, now: 1000 + sim.Time(ep), epoch: ep, done: 1 << 40, ewma: 5, k: 300},
		{busyAt: 0, now: sim.Time(ep), epoch: ep, done: int64(ep) * 3, ewma: 9, k: 40},
		{busyAt: 0, now: 10 * sim.Time(ep), epoch: ep, done: 0, ewma: 0, k: 20},
	}
	rng := sim.NewRand(15)
	for i := 0; i < 300; i++ {
		busyAt := sim.Time(rng.Int63n(1 << 40))
		spans = append(spans, span{
			busyAt: busyAt,
			now:    busyAt.Add(sim.Duration(rng.Int63n(1 << 36))),
			epoch:  sim.Duration(1 + rng.Int63n(1<<24)),
			done:   1 + rng.Int63n(1<<uint(rng.Intn(40))),
			ewma:   sim.Duration(rng.Int63n(1 << 30)),
			k:      1 + rng.Intn(400),
		})
	}
	for i, sp := range spans {
		direct := channelState{svcBusyAt: sp.busyAt, svcDone: sp.done, ewma: sp.ewma}
		inc := direct
		f := inc.startFold(sp.now, sp.epoch)
		e := sp.now
		for j := 1; j <= sp.k; j++ {
			e = e.Add(sp.epoch)
			direct.foldService(e)
			f.next(&inc)
			if inc.ewma != direct.ewma {
				t.Fatalf("span %d %+v: epoch %d: incremental ewma %d, direct %d",
					i, sp, j, inc.ewma, direct.ewma)
			}
		}
	}

	// run(ch, k) finishes a span in closed form once g = q - ewma is in
	// the band [7*dq, 7*dq+7]. It must land where k next calls do: from g
	// below, inside and above the band, negative g, ewma 0 (and negative),
	// q 0, svcDone 1, svcDone >= Epoch (dq 0) and dr 0, over chained spans.
	closed := 0
	for i := 0; i < 100_000; i++ {
		epoch := sim.Duration(1 + rng.Int63n(1<<24))
		var d sim.Duration
		switch rng.Intn(4) {
		case 0:
			d = 1
		case 1:
			d = epoch + sim.Duration(rng.Int63n(1<<20)) // dq 0
		case 2:
			d = sim.Duration(1 + rng.Int63n(64))
			epoch = d * sim.Duration(1+rng.Int63n(1<<18)) // dr 0
		default:
			d = sim.Duration(1 + rng.Int63n(1<<uint(rng.Intn(31))))
		}
		f := quietFold{dq: epoch / d, dr: epoch % d, d: d, r: sim.Duration(rng.Int63n(int64(d)))}
		switch rng.Intn(3) {
		case 0:
			f.q = 0
		case 1:
			f.q = sim.Duration(rng.Int63n(1 << 12))
		default:
			f.q = sim.Duration(rng.Int63n(1 << 36))
		}
		lo := 7 * f.dq
		var g sim.Duration
		switch rng.Intn(5) {
		case 0: // inside the band
			g = lo + sim.Duration(rng.Intn(8))
		case 1: // just below or above it
			g = lo - 1 - sim.Duration(rng.Intn(8))
			if rng.Intn(2) == 0 {
				g = lo + 8 + sim.Duration(rng.Intn(8))
			}
		case 2: // far above
			g = lo + 8 + sim.Duration(rng.Int63n(1<<30))
		default: // negative: a completion just moved svcDone
			g = -1 - sim.Duration(rng.Int63n(1<<uint(rng.Intn(34))))
		}
		ewma := f.q - g
		switch rng.Intn(10) {
		case 0:
			ewma = 0
		case 1:
			ewma = -sim.Duration(rng.Int63n(1 << 10))
		}
		ref, got := channelState{ewma: ewma}, channelState{ewma: ewma}
		rf := f
		for span := 1 + rng.Intn(3); span > 0; span-- {
			k := 1 + rng.Intn(300)
			for j := 0; j < k; j++ {
				rf.next(&ref)
			}
			closed += f.run(&got, k)
			if got.ewma != ref.ewma || f != rf {
				t.Fatalf("state %d (g %d) span k=%d: run gave ewma %d fold %+v, next gave ewma %d fold %+v",
					i, g, k, got.ewma, f, ref.ewma, rf)
			}
		}
	}
	if closed == 0 {
		t.Fatal("no span reached the closed form")
	}
}

// TestBreakerTicksMatchTick: breaker.ticks(k), which jumps to the next
// window end or cooldown expiry, leaves the FSM and its breaker-* counters
// exactly where k tick calls leave them, from random closed (trip-ready or
// not), open and half-open states, over chained spans. BreakerMinSamples 0
// covers an empty window that trips on its own.
func TestBreakerTicksMatchTick(t *testing.T) {
	rng := sim.NewRand(18)
	rates := []float64{0.25, 0.5, 1}
	for i := 0; i < 100_000; i++ {
		cfg := &Config{
			BreakerWindow:     1 + rng.Intn(16),
			BreakerMinSamples: rng.Intn(9),
			BreakerErrRate:    rates[rng.Intn(len(rates))],
			BreakerCooldown:   1 + rng.Intn(32),
		}
		st := breaker{cfg: cfg, state: breakerState(rng.Intn(3)), coolBase: cfg.BreakerCooldown << uint(rng.Intn(4))}
		switch st.state {
		case breakerClosed:
			st.winTotal = rng.Intn(12)
			st.winFail = rng.Intn(st.winTotal + 1)
			st.winLeft = 1 + rng.Intn(cfg.BreakerWindow)
		case breakerOpen:
			st.cooldown = 1 + rng.Intn(st.coolBase)
		case breakerHalfOpen:
			st.streak = rng.Intn(8)
		}
		ref, got := st, st
		ref.ctr, got.ctr = metrics.NewCounters(), metrics.NewCounters()
		for span := 1 + rng.Intn(3); span > 0; span-- {
			k := 1 + rng.Intn(300)
			for j := 0; j < k; j++ {
				ref.tick()
			}
			got.ticks(k)
			a, b := got, ref
			a.ctr, b.ctr, a.cfg, b.cfg = nil, nil, nil, nil
			if a != b || got.ctr.String() != ref.ctr.String() {
				t.Fatalf("state %d (window %d, min samples %d, rate %g): ticks(%d) gave %+v [%s], tick gave %+v [%s]",
					i, cfg.BreakerWindow, cfg.BreakerMinSamples, cfg.BreakerErrRate, k, a, got.ctr, b, ref.ctr)
			}
		}
	}
}

// TestRefillTokensSpanMatchesEpochs: one refillTokens(k) leaves every
// bucket bit-identical to k epochs of the naive refill (one addition, then
// the burst cap): buckets that fill to burst mid-span, start full or above
// burst, never fill inside the span, take an allotment too small to move
// the float, or are unpoliced. Step's refillTokens(1) is held to the same
// reference.
func TestRefillTokensSpanMatchesEpochs(t *testing.T) {
	rng := sim.NewRand(18)
	for i := 0; i < 20_000; i++ {
		ts := make([]tenantState, 1+rng.Intn(4))
		for j := range ts {
			ts[j].burst = float64(1 + rng.Intn(64))
			ts[j].refill = rng.Float64() * 2
			switch rng.Intn(5) {
			case 0:
				ts[j].refill = 0
			case 1:
				ts[j].refill = 1e-18
			}
			ts[j].tokens = rng.Float64() * ts[j].burst * 1.2
		}
		ref := make([]float64, len(ts))
		for j := range ts {
			ref[j] = ts[j].tokens
		}
		got := &Pool{qosT: ts}
		one := &Pool{qosT: append([]tenantState(nil), ts...)}
		for span := 1 + rng.Intn(3); span > 0; span-- {
			k := 1 + rng.Intn(200)
			for j := range ts {
				for e := 0; e < k && ts[j].refill > 0; e++ {
					ref[j] += ts[j].refill
					if ref[j] > ts[j].burst {
						ref[j] = ts[j].burst
					}
				}
			}
			got.refillTokens(k)
			for e := 0; e < k; e++ {
				one.refillTokens(1)
			}
			for j := range ts {
				want := math.Float64bits(ref[j])
				if a, b := got.qosT[j].tokens, one.qosT[j].tokens; math.Float64bits(a) != want || math.Float64bits(b) != want {
					t.Fatalf("state %d tenant %d (refill %g burst %g) k=%d: span %v, per-epoch %v, naive %v",
						i, j, ts[j].refill, ts[j].burst, k, a, b, ref[j])
				}
			}
		}
	}
}

// BenchmarkStepQuiet times one k-epoch quiet span of an idle 6-channel
// pool whose channels have all completed work, so every channel's EWMA
// folds and every breaker ticks across the span. The boundary replay is
// O(channels + tenants), so ns/op should not grow with k; what remains is
// the members' idle warp.
func BenchmarkStepQuiet(b *testing.B) {
	for _, k := range []int{64, 4096} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			p := newTestPool(b, 6, 1, 1, 4096)
			for off := int64(0); off < 6*4096; off += 4096 {
				if _, err := p.Submit(openloop.Request{Off: off, Len: 4096}); err != nil {
					b.Fatal(err)
				}
			}
			for !p.Quiesced() {
				p.Step()
			}
			p.Poll(nil, 0)
			if q := p.QuietEpochs(k); q != k {
				b.Fatalf("QuietEpochs(%d) = %d on an idle pool", k, q)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.StepQuiet(k)
			}
		})
	}
}
