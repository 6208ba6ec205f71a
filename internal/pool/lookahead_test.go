package pool

import (
	"fmt"
	"testing"

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
// 8 epoch workers. Runs unshortened so the -race lane checks the batched
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
	e := p.Cfg.Epoch
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
// that starts on svcBusyAt, and for a channel with no completed work.
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
}
