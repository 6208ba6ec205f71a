package numa

import (
	"fmt"
	"testing"

	"nvdimmc/internal/fault"
	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
	"nvdimmc/internal/workload/openloop"
)

// quietFabric builds a fault-free 2-socket fabric with both probe periods
// pushed far out, so the bound under test is the only horizon in play.
func quietFabric(t *testing.T, mut ...func(*Config)) *Fabric {
	t.Helper()
	return newTestFabric(t, 2, 1, append([]func(*Config){func(c *Config) {
		c.ProbeEvery = 1 << 20
		c.Pool.ProbeEvery = 1 << 20
	}}, mut...)...)
}

// armRegistries attaches a fault registry to every member of every socket
// without arming a rule: nothing fires, but no pool can vouch that its
// probes are no-ops any more.
func armRegistries(c *Config) {
	c.ArmFaults = func(socket, member int, g *fault.Registry) {}
}

// TestFabricQuietEpochsProbeBound: a probe bounds a quiet batch only when
// it could act. On a healthy idle fabric every socket and member probe is a
// no-op, so only the caller's limit bounds the batch. Once probes can act —
// a Suspect socket counts its clean streak, and fault registries keep every
// pool's member probes live — a batch may end on a fabric or pool probe
// epoch but never jump one. Walking such a fabric batch by batch must land
// on exactly the union of both probe schedules and run every fabric probe
// once.
func TestFabricQuietEpochsProbeBound(t *testing.T) {
	f := newTestFabric(t, 2, 1, func(cfg *Config) {
		cfg.ProbeEvery = 8
		cfg.Pool.ProbeEvery = 4
	})
	if k := f.QuietEpochs(1000); k != 1000 {
		t.Fatalf("healthy idle fabric: QuietEpochs = %d, want 1000 (no-op probes jumped)", k)
	}
	f.StepQuiet(1000)
	if f.sup.Jumped() != 124 || f.sup.Kids[0].Last.Epochs != 1000 {
		t.Fatalf("batch to epoch 1000 jumped %d probes, last probe at pool epoch %d; want 124 and 1000",
			f.sup.Jumped(), f.sup.Kids[0].Last.Epochs)
	}
	for _, c := range []struct {
		fabric, pool int
		batches      []int
	}{
		// Fabric probes every 8, pool every 64: the fabric bound rules.
		{8, 64, []int{8, 8, 8, 8, 8, 8, 8, 8}},
		// Fabric 6, pool 4: batches end on 4, 6, 8, 12, 16, 18, 20, 24.
		{6, 4, []int{4, 2, 2, 4, 4, 2, 2, 4}},
	} {
		f := newTestFabric(t, 2, 1, armRegistries, func(cfg *Config) {
			cfg.ProbeEvery = c.fabric
			cfg.Pool.ProbeEvery = c.pool
		})
		// A Suspect socket's clean streak counts the fabric probes that ran.
		// Taking the streak after every batch keeps it under
		// pool.SuspectClearProbes, so the socket never recovers.
		h := &f.sup.Kids[1]
		h.State = pool.HealthSuspect
		clean := 0
		for i, want := range c.batches {
			k := f.QuietEpochs(1000)
			if k != want {
				t.Fatalf("%d/%d batch %d at epoch %d: QuietEpochs = %d, want %d",
					c.fabric, c.pool, i, f.sup.Epochs, k, want)
			}
			f.StepQuiet(k)
			clean += h.CleanProbes
			h.CleanProbes = 0
		}
		if want := f.sup.Epochs / c.fabric; clean != want {
			t.Fatalf("%d/%d: %d clean probes by epoch %d, want %d (a probe was jumped)",
				c.fabric, c.pool, clean, f.sup.Epochs, want)
		}
	}
	f = newTestFabric(t, 2, 1, armRegistries, func(cfg *Config) { cfg.Pool.ProbeEvery = 1 << 20 })
	for i := 0; i < 5; i++ {
		f.Step()
	}
	if k := f.QuietEpochs(1000); k != 3 {
		t.Fatalf("epoch 5, fabric probe every 8: QuietEpochs = %d, want 3", k)
	}
}

// tripReadyBreaker makes every completion a breaker failure and lets a
// single sample trip a channel's breaker at its window end.
func tripReadyBreaker(c *Config) {
	c.Pool.BreakerLatency = 1
	c.Pool.BreakerMinSamples = 1
	c.Pool.BreakerErrRate = 0.5
	c.Pool.BreakerCooldown = 1 << 10
}

// serveOne submits one request to socket 1 and steps until it is terminal.
func serveOne(t *testing.T, f *Fabric) {
	t.Helper()
	if _, err := f.Submit(openloop.Request{Socket: 1, Off: f.Span(), Len: 4096}); err != nil {
		t.Fatal(err)
	}
	for !f.Quiesced() {
		f.Step()
	}
}

// TestFabricQuietEpochsProbeFailsClosed: each clause of the fabric's
// probesIdle, broken alone, brings the socket-probe bound back. Pool probes
// are pushed far out, so the fabric predicate alone must catch a pool that
// cannot vouch for its snapshot.
func TestFabricQuietEpochsProbeFailsClosed(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   func(*Config)
		spoil func(*Fabric)
	}{
		{"suspect socket", nil, func(f *Fabric) { f.sup.Kids[1].State = pool.HealthSuspect }},
		{"quarantine count moved since the last probe", nil, func(f *Fabric) {
			f.sup.Kids[0].Last.Quarantined = 1
		}},
		{"suspicious probe: open breaker", tripReadyBreaker, func(f *Fabric) {
			f.sup.Every = 1 << 20 // no fabric probe may see the breaker before the check
			serveOne(t, f)
			for f.Socket(1).Probe().BreakersOpen == 0 {
				f.Step()
			}
			f.sup.Every = 8
		}},
		{"condemned probe: degraded position", func(c *Config) {
			c.Pool.Member.Audit = true
			c.Pool.ProbeEvery = 1
		}, func(f *Fabric) {
			// An auditor violation quarantines the member at the next pool
			// probe; with no spare its position goes degraded. The baseline
			// is moved along so only the condemnation can tell.
			f.Socket(0).Member(0).Auditor.Record(&trace.Event{At: 0, Kind: trace.KindOther})
			f.Step()
			pr := f.Socket(0).Probe()
			if pr.DegradedPositions != 1 {
				t.Fatalf("degraded positions %d, want 1", pr.DegradedPositions)
			}
			f.sup.Kids[0].Last = pr
		}},
		{"suspicious probe resets the clean streak", func(c *Config) { c.Pool.ProbeEvery = 4 }, func(f *Fabric) {
			// One clean probe short of recovery, suspicious probes (a
			// member's driver error growth, then the member Suspect for
			// four member probes) restart the streak, so the clean probe
			// at epoch 24 leaves the socket Suspect.
			f.sup.Kids[1].State, f.sup.Kids[1].CleanProbes = pool.HealthSuspect, pool.SuspectClearProbes-1
			f.Socket(1).Member(0).Driver.Counters().Inc(nvdc.CtrAckTimeout)
			for f.sup.Epochs < 24 {
				f.Step()
			}
		}},
		{"pool cannot vouch: armed fault registry", armRegistries, nil},
		{"pool cannot vouch: trip-ready closed breaker", tripReadyBreaker, func(f *Fabric) {
			serveOne(t, f)
			if f.Socket(1).ProbeSteady() || f.Socket(1).Probe().BreakersOpen != 0 {
				t.Fatal("want a closed breaker about to trip")
			}
		}},
	} {
		mut := []func(*Config){func(cfg *Config) {
			cfg.ProbeEvery = 8
			cfg.Pool.ProbeEvery = 1 << 20
		}}
		if c.cfg != nil {
			mut = append(mut, c.cfg)
		}
		f := newTestFabric(t, 2, 1, mut...)
		if c.spoil != nil {
			c.spoil(f)
		}
		want := 8 - f.sup.Epochs%8
		if want < 2 {
			f.Step()
			want = 8
		}
		if k := f.QuietEpochs(1000); k != want {
			t.Errorf("%s at epoch %d: QuietEpochs = %d, want %d (the probe could act)", c.name, f.sup.Epochs, k, want)
		}
	}
}

// TestFabricQuietEpochsRetryBound: a backoff entry's ready epoch bounds the
// batch so the promoting boundary is a real Step.
func TestFabricQuietEpochsRetryBound(t *testing.T) {
	f := quietFabric(t)
	f.sup.Retries = append(f.sup.Retries, pool.Retry{Item: &pool.Piece{Req: &pool.Request{}}, Ready: 7})
	if k := f.QuietEpochs(1000); k != 6 {
		t.Fatalf("retry ready at epoch 7: QuietEpochs = %d, want 6", k)
	}
	f.sup.Retries[0].Ready = 2
	if k := f.QuietEpochs(1000); k != 0 {
		t.Fatalf("retry ready in two epochs: QuietEpochs = %d, want 0 (one quiet epoch is a plain Step)", k)
	}
	f.sup.Retries[0].Ready = 1
	if k := f.QuietEpochs(1000); k != 0 {
		t.Fatalf("retry due next step: QuietEpochs = %d, want 0", k)
	}
}

// TestFabricQuietEpochsLinkFaultBound: a scheduled link fault fires on a
// real Step at exactly its epoch; once past, it bounds nothing.
func TestFabricQuietEpochsLinkFaultBound(t *testing.T) {
	f := quietFabric(t, func(c *Config) {
		c.LinkFaults = []fault.LinkFault{{Epoch: 5, Socket: 1, LatFactor: 4, BWDivide: 2}}
	})
	if k := f.QuietEpochs(1000); k != 4 {
		t.Fatalf("link fault at epoch 5: QuietEpochs = %d, want 4", k)
	}
	f.StepQuiet(4)
	if n := f.ctr.Get("link-degraded"); n != 0 {
		t.Fatalf("link fault fired inside the quiet batch (%d)", n)
	}
	if k := f.QuietEpochs(1000); k != 0 {
		t.Fatalf("link fault due next step: QuietEpochs = %d, want 0 (a plain Step)", k)
	}
	f.Step()
	if f.sup.Epochs != 5 || f.ctr.Get("link-degraded") != 1 {
		t.Fatalf("epoch %d: link fault fired %d times, want once at epoch 5",
			f.sup.Epochs, f.ctr.Get("link-degraded"))
	}
	if k := f.QuietEpochs(1000); k != 1000 {
		t.Fatalf("past link fault: QuietEpochs = %d, want 1000 (no bound)", k)
	}
}

// TestFabricQuietEpochsMigrationDisables: an active evacuation issues pages
// every epoch, so no batch may form.
func TestFabricQuietEpochsMigrationDisables(t *testing.T) {
	f := quietFabric(t)
	f.sup.Jobs = append(f.sup.Jobs, &pool.Copy{})
	if k := f.QuietEpochs(1000); k != 0 {
		t.Fatalf("active migration: QuietEpochs = %d, want 0", k)
	}
}

// TestFabricQuietEpochsPendingDisables: a foreground or migration piece
// pending on any socket means a completion may land at the next boundary.
func TestFabricQuietEpochsPendingDisables(t *testing.T) {
	f := quietFabric(t)
	f.socks[1].pend[1] = &pool.Piece{}
	if k := f.QuietEpochs(1000); k != 0 {
		t.Fatalf("pending foreground piece: QuietEpochs = %d, want 0", k)
	}
	delete(f.socks[1].pend, 1)
	f.socks[0].mig[1] = migOp{}
	if k := f.QuietEpochs(1000); k != 0 {
		t.Fatalf("pending migration piece: QuietEpochs = %d, want 0", k)
	}
	delete(f.socks[0].mig, 1)
	if k := f.QuietEpochs(1000); k != 1000 {
		t.Fatalf("idle fabric: QuietEpochs = %d, want 1000", k)
	}
}

// TestFabricQuietEpochsBreakerBound: an open breaker on one socket caps
// the whole fabric's batch at that pool's cooldown expiry, and the
// half-open transition lands on the batch's final epoch.
func TestFabricQuietEpochsBreakerBound(t *testing.T) {
	f := quietFabric(t, func(c *Config) {
		// Every completion counts as a breaker failure, so one request trips
		// its channel's breaker at the end of a 2-epoch window.
		c.Pool.BreakerLatency = 1
		c.Pool.BreakerWindow = 2
		c.Pool.BreakerMinSamples = 1
		c.Pool.BreakerErrRate = 0.5
		c.Pool.BreakerCooldown = 40
	})
	if _, err := f.Submit(openloop.Request{Socket: 1, Off: f.Span(), Len: 4096}); err != nil {
		t.Fatal(err)
	}
	open := func() bool {
		for _, o := range f.Socket(1).Occupancy() {
			if o.Breaker == "open" {
				return true
			}
		}
		return false
	}
	for !open() {
		if f.sup.Epochs > 512 {
			t.Fatal("breaker never tripped")
		}
		f.Step()
	}
	if !f.Quiesced() {
		t.Fatal("request still pending with the breaker open")
	}
	want := f.Socket(1).QuietEpochs(1000)
	if want < 2 || want > 40 {
		t.Fatalf("open breaker: socket 1 QuietEpochs = %d, want a cooldown in [2, 40]", want)
	}
	if k := f.Socket(0).QuietEpochs(1000); k != 1000 {
		t.Fatalf("healthy socket 0: QuietEpochs = %d, want 1000", k)
	}
	if k := f.QuietEpochs(1000); k != want {
		t.Fatalf("open breaker on socket 1: fabric QuietEpochs = %d, want %d", k, want)
	}
	f.StepQuiet(want)
	if got := f.Socket(1).Occupancy()[0].Breaker + "/" + f.Socket(1).Occupancy()[1].Breaker; open() ||
		got == "closed/closed" {
		t.Fatalf("after the capped batch breakers are %s, want one half-open", got)
	}
}

// TestFabricQuietEpochsDisabled: the lockstep oracle and a limit below two
// epochs both force a plain Step.
func TestFabricQuietEpochsDisabled(t *testing.T) {
	f := quietFabric(t)
	for _, limit := range []int{-1, 0, 1} {
		if k := f.QuietEpochs(limit); k != 0 {
			t.Fatalf("limit %d: QuietEpochs = %d, want 0", limit, k)
		}
	}
	if k := f.QuietEpochs(2); k != 2 {
		t.Fatalf("limit 2: QuietEpochs = %d, want 2", k)
	}
	f = quietFabric(t, func(c *Config) { c.DisableLookahead = true })
	if k := f.QuietEpochs(1000); k != 0 {
		t.Fatalf("lookahead disabled: QuietEpochs = %d, want 0", k)
	}
}

// sameFabric fails unless two fabrics agree on every observable: stats,
// boundary instant, each pool's clock and occupancy, and socket health.
func sameFabric(t *testing.T, label string, a, b *Fabric) {
	t.Helper()
	if sa, sb := snapshot(a.Stats()), snapshot(b.Stats()); sa != sb {
		t.Fatalf("%s: stats diverged:\n--- batched ---\n%s--- stepped ---\n%s", label, sa, sb)
	}
	if a.Now() != b.Now() {
		t.Fatalf("%s: Now %v vs %v", label, a.Now(), b.Now())
	}
	for si := range a.socks {
		pa, pb := a.Socket(si), b.Socket(si)
		if pa.Now() != pb.Now() {
			t.Fatalf("%s: socket %d pool Now %v vs %v", label, si, pa.Now(), pb.Now())
		}
		if oa, ob := fmt.Sprintf("%+v", pa.Occupancy()), fmt.Sprintf("%+v", pb.Occupancy()); oa != ob {
			t.Fatalf("%s: socket %d occupancy %s vs %s", label, si, oa, ob)
		}
		if ha, hb := a.sup.Kids[si].Lattice, b.sup.Kids[si].Lattice; ha != hb {
			t.Fatalf("%s: socket %d health %+v vs %+v", label, si, ha, hb)
		}
	}
}

// TestFabricStepQuietMatchesSteps: one StepQuiet(k) on a fabric must leave
// it exactly where k Steps leave its twin — warmed pools (service EWMAs,
// probe baselines), a Suspect socket whose clean streak counts every
// fabric probe, and non-aligned fabric and pool probe periods.
func TestFabricStepQuietMatchesSteps(t *testing.T) {
	twin := func() *Fabric {
		f := newTestFabric(t, 2, 2, func(c *Config) {
			c.ProbeEvery = 6
			c.Pool.ProbeEvery = 4
		})
		runFabric(t, f, fabricTenants(f, 5, false), 40)
		f.sup.Kids[1].State = pool.HealthSuspect
		return f
	}
	a, b := twin(), twin()
	sameFabric(t, "warm-up", a, b)
	batches, clean := 0, 0
	for end := a.sup.Epochs + 60; a.sup.Epochs < end; {
		k := a.QuietEpochs(1000)
		if k > 1 {
			a.StepQuiet(k)
			batches++
		} else {
			k = 1 // one epoch to the next probe: a plain Step on both
			a.Step()
		}
		for i := 0; i < k; i++ {
			b.Step()
		}
		sameFabric(t, fmt.Sprintf("k=%d to epoch %d", k, a.sup.Epochs), a, b)
		// Take the clean streak on both twins so it stays under
		// pool.SuspectClearProbes and the socket stays Suspect.
		clean += a.sup.Kids[1].CleanProbes
		a.sup.Kids[1].CleanProbes = 0
		b.sup.Kids[1].CleanProbes = 0
	}
	if batches < 10 || clean < 10 {
		t.Fatalf("%d batches and %d fabric probes in the compared span, want >= 10 each",
			batches, clean)
	}
}

// TestFabricIdleLookaheadIdentical is the fabric lookahead's acceptance
// gate: an idle-heavy rated load (mean inter-arrival ~64 epochs) on three
// sockets, with a socket kill whose evacuation lands inside idle gaps and
// a link fault scheduled mid-gap, produces byte-identical stats at 1, 2
// and 8 workers under both lockstep and lookahead — and the lookahead runs
// really batch most of their epochs and park idle sockets. Runs in the
// -race -short lane.
func TestFabricIdleLookaheadIdentical(t *testing.T) {
	const count = 200 // enough writes for the kill's first program failure
	var snaps, labels []string
	for _, lockstep := range []bool{true, false} {
		for _, workers := range []int{1, 2, 8} {
			f := newTestFabric(t, 3, workers, killSocket(1, 1), func(c *Config) {
				c.ProbeEvery = 8
				c.Pool.ProbeEvery = 64
				c.DisableLookahead = lockstep
				c.LinkFaults = []fault.LinkFault{{Epoch: 2021, Socket: 2, LatFactor: 8, BWDivide: 4}}
			})
			gcfg := fabricTenants(f, 42, true)
			gcfg.RatePerSec = 2e3
			s := runFabric(t, f, gcfg, count)
			label := fmt.Sprintf("lockstep=%v workers=%d", lockstep, workers)
			if s.PerSocket[1].State != SocketEvacuated {
				t.Fatalf("%s: victim state %s, want evacuated", label, s.PerSocket[1].State)
			}
			if s.Ctr.Get("link-degraded") != 1 {
				t.Fatalf("%s: link fault fired %d times", label, s.Ctr.Get("link-degraded"))
			}
			switch {
			case lockstep && (f.sup.QuietSpan != 0 || closedFolds(f) != 0 || f.sup.Skipped != 0):
				t.Fatalf("%s: lockstep batched %d epochs, %d folds in closed form, skipped %d parked socket steps",
					label, f.sup.QuietSpan, closedFolds(f), f.sup.Skipped)
			case !lockstep && f.sup.Skipped == 0:
				t.Fatalf("%s: no socket was ever parked", label)
			case !lockstep && 2*f.sup.QuietSpan < s.Epochs:
				t.Fatalf("%s: only %d of %d epochs batched", label, f.sup.QuietSpan, s.Epochs)
			case !lockstep && closedFolds(f) == 0:
				t.Fatalf("%s: no quiet span folded an EWMA in closed form", label)
			}
			snaps = append(snaps, snapshot(s))
			labels = append(labels, label)
		}
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("%s changed output vs %s:\n--- %s ---\n%s--- %s ---\n%s",
				labels[i], labels[0], labels[0], snaps[0], labels[i], snaps[i])
		}
	}
}

// closedFolds sums the channel-epochs every socket's quiet spans folded
// in closed form (pool.ClosedFormFolds).
func closedFolds(f *Fabric) int {
	n := 0
	for s := range f.socks {
		n += f.Socket(s).ClosedFormFolds()
	}
	return n
}

// cachedTenants is fabricTenants over each socket's cache-resident
// footprint at an idle-heavy rate: every access hits the DRAM cache, so
// completion latency sits in a narrow band of a few microseconds.
func cachedTenants(f *Fabric, seed uint64, rate float64) openloop.Config {
	var ts []openloop.Tenant
	for s := 0; s < f.Cfg.Sockets; s++ {
		ts = append(ts, openloop.Tenant{
			Name: fmt.Sprintf("s%d", s), Socket: s, Dist: openloop.Uniform, ReadPct: 70,
			Weight: 2, Footprint: f.Socket(s).CachedFootprint(), Offset: int64(s) * f.Span(),
		})
	}
	ts = append(ts, openloop.Tenant{
		Name: "roam", Socket: 0, Dist: openloop.Uniform, ReadPct: 70,
		Weight: 1, Footprint: f.Socket(1).CachedFootprint(), Offset: f.Span(),
	})
	return openloop.Config{Seed: seed, RatePerSec: rate, Tenants: ts}
}

// TestFabricIdleProbeJumpIdentical is the no-op-probe rule's acceptance
// gate. A fault-free idle-heavy fabric (mean inter-arrival ~64 epochs)
// counts its slowest completions as breaker failures, so breakers trip now
// and then and walk their socket Up → Suspect → Up. While a socket is
// Suspect or a breaker is open, probes can act and bound every batch; in
// between, batches jump no-op probes at both levels. Stats must be
// byte-identical at 1, 2 and 8 workers under lockstep and lookahead, and
// the lookahead runs must really jump probe epochs and park sockets. Unlike
// TestFabricIdleLookaheadIdentical, no member carries a fault registry.
func TestFabricIdleProbeJumpIdentical(t *testing.T) {
	const count = 200
	var snaps, labels []string
	for _, lockstep := range []bool{true, false} {
		for _, workers := range []int{1, 2, 8} {
			f := newTestFabric(t, 2, workers, func(c *Config) {
				c.ProbeEvery = 8
				c.Pool.ProbeEvery = 16
				c.EvacuateAfterProbes = 1 << 20
				c.Pool.BreakerLatency = 3 * sim.Microsecond
				c.Pool.BreakerMinSamples = 1
				c.Pool.BreakerCloseStreak = 1
				c.DisableLookahead = lockstep
			})
			s := runFabric(t, f, cachedTenants(f, 7, 2e3), count)
			label := fmt.Sprintf("lockstep=%v workers=%d", lockstep, workers)
			if s.Ctr.Get("socket-suspect") == 0 || s.Ctr.Get("socket-recovered") == 0 || s.ChunksRehomed != 0 {
				t.Fatalf("%s: suspect=%d recovered=%d rehomed=%d, want a Suspect→Up episode without evacuation",
					label, s.Ctr.Get("socket-suspect"), s.Ctr.Get("socket-recovered"), s.ChunksRehomed)
			}
			switch {
			case lockstep && (f.sup.QuietSpan != 0 || closedFolds(f) != 0 || f.sup.Skipped != 0):
				t.Fatalf("%s: lockstep batched %d epochs, %d folds in closed form, skipped %d parked socket steps",
					label, f.sup.QuietSpan, closedFolds(f), f.sup.Skipped)
			case !lockstep && f.sup.Skipped == 0:
				t.Fatalf("%s: no socket was ever parked", label)
			case !lockstep && f.sup.Jumped() == 0:
				t.Fatalf("%s: no batch jumped a probe epoch", label)
			case !lockstep && closedFolds(f) == 0:
				t.Fatalf("%s: no quiet span folded an EWMA in closed form", label)
			}
			snaps = append(snaps, snapshot(s))
			labels = append(labels, label)
		}
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("%s changed output vs %s:\n--- %s ---\n%s--- %s ---\n%s",
				labels[i], labels[0], labels[0], snaps[0], labels[i], snaps[i])
		}
	}
}

// TestFabricDrainBatchesRetryBackoff: Drain batches quiet spans too, so a
// retry waiting out its backoff costs one batch, not one Step per epoch,
// and promotes at exactly its ready epoch.
func TestFabricDrainBatchesRetryBackoff(t *testing.T) {
	f := quietFabric(t)
	op := &pool.Piece{Req: &pool.Request{Remaining: 1, Home: 0, Bytes: 4096}, Off: 0, N: 4096, Attempts: 1}
	f.led.Submitted++
	f.sup.Retries = append(f.sup.Retries, pool.Retry{Item: op, Ready: 50})
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Completed != 1 || f.ctr.Get("fab-retry-promoted") != 1 {
		t.Fatalf("retried piece: completed=%d promoted=%d", f.Stats().Completed, f.ctr.Get("fab-retry-promoted"))
	}
	if f.sup.QuietSpan != 49 {
		t.Fatalf("backoff to epoch 50 batched %d epochs, want 49", f.sup.QuietSpan)
	}
}

// twin drives one of two fabrics, lookahead and lockstep, through the same
// actions. On the lookahead one it checks that each wake point really
// meets a parked socket; on the lockstep one, that nothing ever parks.
type twin struct {
	t    *testing.T
	f    *Fabric
	hits int
}

// advance moves the fabric n epochs the way the shared driver does: a
// quiet batch when QuietEpochs proves one, else a Step.
func (d *twin) advance(n int) {
	for end := d.f.sup.Epochs + n; d.f.sup.Epochs < end; {
		if k := d.f.QuietEpochs(end - d.f.sup.Epochs); k > 1 {
			d.f.StepQuiet(k)
		} else {
			d.f.Step()
		}
		d.check()
	}
}

// steps moves the fabric n epochs by plain Steps, as the driver does while
// another socket has work in flight.
func (d *twin) steps(n int) {
	for i := 0; i < n; i++ {
		d.f.Step()
		d.check()
	}
}

// check asserts what must hold between steps: no socket sits parked while
// a migration job runs, and none lags past its horizon. It also takes the
// clean streak of Suspect socket 2, which every move covers at most one
// socket probe of, so the streak never reaches pool.SuspectClearProbes and
// the socket stays Suspect.
func (d *twin) check() {
	d.t.Helper()
	if h := &d.f.sup.Kids[2]; h.State == pool.HealthSuspect {
		h.CleanProbes = 0
	}
	for si, s := range d.f.sup.Kids {
		if s.Parked && (len(d.f.sup.Jobs) > 0 || s.Until <= d.f.sup.Epochs) {
			d.t.Fatalf("epoch %d: socket %d parked until %d with %d migration jobs",
				d.f.sup.Epochs, si, s.Until, len(d.f.sup.Jobs))
		}
	}
}

// touch precedes an action that must wake socket si.
func (d *twin) touch(si int, what string) {
	d.t.Helper()
	s := &d.f.sup.Kids[si]
	if d.f.Cfg.DisableLookahead {
		if s.Parked {
			d.t.Fatalf("%s: lockstep socket %d parked", what, si)
		}
		return
	}
	if !s.Parked {
		d.t.Fatalf("%s at epoch %d: socket %d not parked", what, d.f.sup.Epochs, si)
	}
	d.hits++
}

// expire moves n epochs with move, touching nothing on socket si, whose
// bounded horizon must run out inside them and catch it up.
func (d *twin) expire(si, n int, move func(int), what string) {
	d.t.Helper()
	s := &d.f.sup.Kids[si]
	if d.f.Cfg.DisableLookahead {
		move(n)
		return
	}
	if !s.Parked || s.Until > d.f.sup.Epochs+n {
		d.t.Fatalf("%s at epoch %d: socket %d parked=%v until %d, want a horizon inside %d epochs",
			what, d.f.sup.Epochs, si, s.Parked, s.Until, n)
	}
	until := s.Until
	move(n)
	if p := d.f.socks[si].pool; p.Epochs() < until {
		d.t.Fatalf("%s: socket %d pool at epoch %d, horizon ran out at %d without a catch-up",
			what, si, p.Epochs(), until)
	}
	d.hits++
}

// TestParkedSocketsMatchLockstep: a lookahead fabric parks quiescent
// sockets and catches each up where it is next touched or where its
// horizon runs out. Driven through the same actions as a lockstep twin
// that never parks, it must agree with it on every observable (sameFabric)
// after meeting each wake point with the socket parked: a local and a
// remote Submit, Socket() and Stats() reads, horizon expiry from an open
// breaker's cooldown and from pools whose probes can act (armed fault
// registries), and an evacuation that starts while the survivors are parked.
func TestParkedSocketsMatchLockstep(t *testing.T) {
	write := func(f *Fabric, src int, off int64) {
		t.Helper()
		if _, err := f.Submit(openloop.Request{Arrival: f.Now(), Socket: src, Off: off, Len: 4096, Write: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		cfg   func(*Config)
		drive func(d *twin)
	}{
		{"submit and reads", nil, func(d *twin) {
			f := d.f
			d.advance(20)
			d.touch(1, "local submit")
			write(f, 1, f.Span()+8192)
			d.advance(50)
			d.touch(1, "remote submit")
			write(f, 0, f.Span()+4096) // socket 0 stays parked
			d.advance(50)
			d.touch(0, "Socket()")
			_ = f.Socket(0).Now()
			d.advance(30)
			d.touch(1, "Stats()")
			_ = f.Stats()
			d.advance(30)
		}},
		{"breaker cooldown", func(c *Config) {
			// One request trips socket 1's breaker at the end of a 2-epoch
			// window; the open breaker keeps the socket Suspect, never
			// evacuated.
			c.Pool.BreakerLatency = 1
			c.Pool.BreakerWindow = 2
			c.Pool.BreakerMinSamples = 1
			c.Pool.BreakerErrRate = 0.5
			c.Pool.BreakerCooldown = 40
			c.EvacuateAfterProbes = 1 << 20
		}, func(d *twin) {
			f := d.f
			d.advance(4)
			d.touch(1, "submit")
			write(f, 1, f.Span())
			d.advance(20)
			d.expire(1, 60, d.advance, "cooldown")
			d.advance(100)
			d.touch(1, "submit after cooldown")
			write(f, 1, f.Span()+4096)
			d.advance(60)
		}},
		{"probes can act", func(c *Config) {
			armRegistries(c)
			c.ProbeEvery = 16
			c.Pool.ProbeEvery = 4
		}, func(d *twin) {
			f := d.f
			d.advance(5)
			d.expire(1, 8, d.advance, "pool probe, quiet fabric")
			write(f, 0, 8192)
			d.expire(1, 8, d.steps, "pool probe, stepping fabric")
			d.advance(40)
		}},
		{"evacuation", func(c *Config) {
			c.Pool.Member.Audit = true
			c.Pool.ProbeEvery = 1
		}, func(d *twin) {
			f := d.f
			d.advance(20)
			d.touch(1, "Member()")
			// An auditor violation quarantines the member at the next pool
			// probe; with no spare its position goes degraded and the next
			// socket probe evacuates socket 1 onto sockets 0 and 2.
			f.Socket(1).Member(0).Auditor.Record(&trace.Event{At: 0, Kind: trace.KindOther})
			d.touch(0, "evacuation")
			d.touch(2, "evacuation")
			d.advance(400)
			if st := SocketState(f.sup.Kids[1].State); st != SocketEvacuated {
				d.t.Fatalf("victim %s, want evacuated", st)
			}
			write(f, 1, f.Span()) // re-homed onto a survivor
			d.advance(40)
		}},
	} {
		var fabs []*Fabric
		for _, lockstep := range []bool{false, true} {
			f := newTestFabric(t, 3, 1, func(cfg *Config) {
				if c.cfg != nil {
					c.cfg(cfg)
				}
				cfg.DisableLookahead = lockstep
			})
			// Idle socket 2 stays Suspect, so every socket probe runs (none
			// is jumped) and reads its pinned snapshot while it is parked:
			// the lattice baselines must then agree field for field.
			f.sup.Kids[2].State = pool.HealthSuspect
			d := &twin{t: t, f: f}
			c.drive(d)
			if !lockstep && d.hits == 0 {
				t.Fatalf("%s: no wake point met a parked socket", c.name)
			}
			fabs = append(fabs, f)
		}
		sameFabric(t, c.name, fabs[0], fabs[1])
	}
}
