package pool

import (
	"fmt"
	"testing"
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

// TestQuietEpochsProbeBound: the health-probe tick is a cross-member event —
// a quiet batch may end on a probe epoch but never jump one.
func TestQuietEpochsProbeBound(t *testing.T) {
	p := newTestPool(t, 2, 1, 1, 4096) // ProbeEvery defaults to 4
	if k := p.QuietEpochs(1000); k != 4 {
		t.Fatalf("fresh pool: QuietEpochs = %d, want 4 (next probe)", k)
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
