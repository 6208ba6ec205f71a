package pool

import (
	"errors"
	"fmt"
	"testing"

	"nvdimmc/internal/fault"
	"nvdimmc/internal/workload/openloop"
)

// TestPlaneManualDrive exercises the embeddable surface directly: Submit at
// epoch boundaries, Step to advance, Poll for typed completion records, and
// the occupancy/backlog/quiesce queries — no Run harness involved.
func TestPlaneManualDrive(t *testing.T) {
	drive := func() []Completion {
		p := newTestPool(t, 2, 1, 1, 4096)
		ids := map[uint64]bool{}
		for i := 0; i < 8; i++ {
			id, err := p.Submit(openloop.Request{Off: int64(i) * 4096, Len: 4096})
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			if ids[id] {
				t.Fatalf("duplicate request ID %d", id)
			}
			ids[id] = true
		}
		if p.Quiesced() {
			t.Fatal("quiesced with 8 requests outstanding")
		}
		if p.Backlog() != 8 {
			t.Fatalf("backlog %d, want 8 single-fragment requests", p.Backlog())
		}
		occ := p.Occupancy()
		if len(occ) != 2 {
			t.Fatalf("occupancy for %d channels, want 2", len(occ))
		}
		queued := 0
		for _, o := range occ {
			queued += o.Held + o.Queued + o.InFlight
		}
		if queued != 8 {
			t.Fatalf("occupancy accounts %d fragments, want 8", queued)
		}
		for !p.Quiesced() {
			p.Step()
		}
		if p.Backlog() != 0 {
			t.Fatal("quiesced plane still has backlog")
		}
		// Poll in two batches to check the max bound, then exhaustion.
		recs := p.Poll(nil, 3)
		if len(recs) != 3 {
			t.Fatalf("Poll(3) returned %d records", len(recs))
		}
		recs = p.Poll(recs, 0)
		if len(recs) != 8 {
			t.Fatalf("polled %d completions, want 8", len(recs))
		}
		if got := p.Poll(nil, 0); got != nil {
			t.Fatalf("second Poll returned %d records, want none", len(got))
		}
		for i, c := range recs {
			if !ids[c.ID] {
				t.Fatalf("completion %d has unknown ID %d", i, c.ID)
			}
			delete(ids, c.ID)
			if c.Outcome != OutcomeCompleted || c.Err != nil || c.Late {
				t.Fatalf("completion %d: outcome=%v err=%v late=%v", i, c.Outcome, c.Err, c.Late)
			}
		}
		if err := p.CheckHealth(); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	// Two identical drives must deliver identical records in identical
	// order — Poll order is part of the determinism contract.
	a, b := drive(), drive()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order changed between identical runs:\n%+v\n%+v", a[i], b[i])
		}
	}
}

// TestPlaneDeadlineExpiresAtBoundary pins the determinism contract for
// deadlines: expiry is evaluated only at epoch boundaries, so every expired
// record's terminal instant is an exact boundary and carries the typed
// ErrDeadlineExceeded chain.
func TestPlaneDeadlineExpiresAtBoundary(t *testing.T) {
	p := newTestPool(t, 1, 1, 1, 4096)
	for i := 0; i < 200; i++ {
		if _, err := p.Submit(openloop.Request{
			Off: int64(i%64) * 4096, Len: 4096, Deadline: p.Epoch(),
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	var completed, expired int
	for _, c := range p.Poll(nil, 0) {
		switch c.Outcome {
		case OutcomeCompleted:
			completed++
		case OutcomeExpired:
			expired++
			if !errors.Is(c.Err, ErrDeadlineExceeded) {
				t.Fatalf("expired request %d error %v, want ErrDeadlineExceeded chain", c.ID, c.Err)
			}
			if off := c.At.Sub(p.epoch0) % p.Epoch(); off != 0 {
				t.Fatalf("request %d expired %v past a boundary — expiry must be boundary-only", c.ID, off)
			}
			if c.Latency < p.Epoch() {
				t.Fatalf("request %d expired after %v, before its %v budget", c.ID, c.Latency, p.Epoch())
			}
		default:
			t.Fatalf("request %d: unexpected outcome %v (%v)", c.ID, c.Outcome, c.Err)
		}
	}
	// The one-epoch budget must split the burst: the first dispatch window
	// completes in time, everything still waiting expires at the boundary.
	if completed == 0 || expired == 0 {
		t.Fatalf("burst split completed=%d expired=%d; want both nonzero", completed, expired)
	}
}

// TestPlaneRetryFailFast pins the retry budget rule: when the next backoff
// cannot land inside the request's deadline, the failure is terminal
// immediately — typed ErrDeadlineExceeded, no retry armed, no backoff
// epochs burnt. Without a deadline the same failure arms a normal retry.
func TestPlaneRetryFailFast(t *testing.T) {
	p := newTestPool(t, 1, 1, 1, 4096)
	ch := p.chans[0]
	ch.ewma = 2 * p.Epoch() // measured service alone overshoots the budget

	r := &request{id: 1, arrival: p.now, deadline: p.now.Add(p.Epoch()), remaining: 1, notify: true}
	p.led.Submitted++
	epochsBefore := p.epochs
	p.fragFailed(&fragment{req: r, member: 0, n: 4096}, fmt.Errorf("injected media error"), p.now)
	if len(p.retries) != 0 {
		t.Fatalf("%d retries armed for an infeasible deadline, want fail-fast", len(p.retries))
	}
	if p.epochs != epochsBefore {
		t.Fatalf("fail-fast burnt %d epochs", p.epochs-epochsBefore)
	}
	if !errors.Is(r.err, ErrDeadlineExceeded) {
		t.Fatalf("request error %v, want ErrDeadlineExceeded chain", r.err)
	}
	if p.led.Expired != 1 {
		t.Fatalf("expired=%d, want the failed request counted expired", p.led.Expired)
	}
	if got := ch.ctr.Get("frags-retry-expired"); got != 1 {
		t.Fatalf("frags-retry-expired=%d, want 1", got)
	}
	recs := p.Poll(nil, 0)
	if len(recs) != 1 || recs[0].Outcome != OutcomeExpired || recs[0].At != p.now {
		t.Fatalf("terminal record %+v, want immediate expired completion", recs)
	}

	// Same failure with no deadline: the retry is armed with its backoff.
	r2 := &request{id: 2, arrival: p.now, remaining: 1}
	p.led.Submitted++
	p.fragFailed(&fragment{req: r2, member: 0, n: 4096}, fmt.Errorf("injected media error"), p.now)
	if len(p.retries) != 1 {
		t.Fatalf("%d retries armed without a deadline, want 1", len(p.retries))
	}
	if p.retries[0].ready != p.epochs+RetryBackoff(1) {
		t.Fatalf("retry ready at epoch %d, want %d", p.retries[0].ready, p.epochs+RetryBackoff(1))
	}
}

// TestPlaneShedNewestBoundsHeld floods a shed-newest channel past its
// PendingCap: the overflow is refused synchronously with typed
// ErrAdmissionFull, the held backlog never exceeds the cap, and the books
// balance (submitted = completed + shed).
func TestPlaneShedNewestBoundsHeld(t *testing.T) {
	p := newTestPool(t, 1, 1, 1, 4096, func(c *Config) {
		c.Admission = AdmitShedNewest
		c.QueueCap = 4
		c.PendingCap = 8
	})
	shed := 0
	for i := 0; i < 40; i++ {
		_, err := p.Submit(openloop.Request{Off: int64(i%32) * 4096, Len: 4096})
		if err != nil {
			if !errors.Is(err, ErrAdmissionFull) {
				t.Fatalf("submit %d: %v, want ErrAdmissionFull chain", i, err)
			}
			shed++
		}
		if held := p.Occupancy()[0].Held; held > p.Cfg.PendingCap {
			t.Fatalf("held backlog %d over PendingCap %d", held, p.Cfg.PendingCap)
		}
	}
	// 4 queued + 8 held admitted; the other 28 must shed.
	if shed != 28 {
		t.Fatalf("shed %d of 40, want 28 (QueueCap 4 + PendingCap 8 admitted)", shed)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Shed != 28 || s.Completed != 12 {
		t.Fatalf("shed=%d completed=%d, want 28/12", s.Shed, s.Completed)
	}
	if s.PerChannel[0].HeldHW > p.Cfg.PendingCap {
		t.Fatalf("held high-water %d over PendingCap %d", s.PerChannel[0].HeldHW, p.Cfg.PendingCap)
	}
	// Synchronously shed requests produce no completion record — the caller
	// already holds the typed error.
	if recs := p.Poll(nil, 0); len(recs) != 12 {
		t.Fatalf("polled %d records, want only the 12 admitted", len(recs))
	}
}

// TestPlaneShedOldestDisplacesOldest floods a shed-oldest channel: every
// Submit is accepted, and the oldest held requests are displaced typed to
// make room — fresh traffic wins, victims are exactly the oldest arrivals.
func TestPlaneShedOldestDisplacesOldest(t *testing.T) {
	p := newTestPool(t, 1, 1, 1, 4096, func(c *Config) {
		c.Admission = AdmitShedOldest
		c.QueueCap = 4
		c.PendingCap = 4
	})
	for i := 0; i < 12; i++ {
		if _, err := p.Submit(openloop.Request{Off: int64(i%32) * 4096, Len: 4096}); err != nil {
			t.Fatalf("submit %d: %v — shed-oldest must accept fresh arrivals", i, err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	victims := map[uint64]bool{}
	for _, c := range p.Poll(nil, 0) {
		if c.Outcome == OutcomeShed {
			if !errors.Is(c.Err, ErrAdmissionFull) {
				t.Fatalf("victim %d error %v, want ErrAdmissionFull chain", c.ID, c.Err)
			}
			victims[c.ID] = true
		}
	}
	// Requests 1-4 fill the queue, 5-8 the held list; arrivals 9-12 each
	// displace the oldest held request — victims must be exactly 5-8.
	if len(victims) != 4 {
		t.Fatalf("%d victims, want 4", len(victims))
	}
	for id := uint64(5); id <= 8; id++ {
		if !victims[id] {
			t.Fatalf("victims %v, want the oldest held requests 5-8", victims)
		}
	}
}

// TestPlaneWritesShedFirst pins the degraded-preference rule: under
// pressure a write is held only to PendingCap/2, while reads keep the full
// cap — so a flooded channel refuses writes before it refuses reads.
func TestPlaneWritesShedFirst(t *testing.T) {
	p := newTestPool(t, 1, 1, 1, 4096, func(c *Config) {
		c.Admission = AdmitShedNewest
		c.QueueCap = 4
		c.PendingCap = 8
	})
	wshed := 0
	for i := 0; i < 40; i++ {
		_, err := p.Submit(openloop.Request{Off: int64(i%32) * 4096, Len: 4096, Write: true})
		if err != nil {
			if !errors.Is(err, ErrAdmissionFull) {
				t.Fatalf("write %d: %v, want ErrAdmissionFull chain", i, err)
			}
			wshed++
		}
	}
	// Writes stop at PendingCap/2 = 4 held (plus 4 queued): 32 shed.
	if wshed != 32 {
		t.Fatalf("shed %d of 40 writes, want 32 (write headroom is PendingCap/2)", wshed)
	}
	// The same channel still has read headroom up to the full cap.
	for i := 0; i < 4; i++ {
		if _, err := p.Submit(openloop.Request{Off: int64(i) * 4096, Len: 4096}); err != nil {
			t.Fatalf("read %d refused (%v) while held below PendingCap — reads shed last", i, err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.WritesShed != 32 || s.Shed != 32 {
		t.Fatalf("writes-shed=%d shed=%d, want 32/32 (no read shed)", s.WritesShed, s.Shed)
	}
}

// TestPlaneDeadlineAwareShedsInfeasible pins the feasibility check: once a
// channel has a service-interval estimate, a request whose remaining budget
// cannot cover twice the estimated queue wait is refused typed at
// admission, while a generously budgeted request on the same channel is
// admitted.
func TestPlaneDeadlineAwareShedsInfeasible(t *testing.T) {
	p := newTestPool(t, 1, 1, 1, 4096, func(c *Config) {
		c.Admission = AdmitDeadlineAware
	})
	ch := p.chans[0]
	ch.ewma = 4 * p.Epoch() // priced: ~4 epochs of wait per queued fragment

	if _, err := p.Submit(openloop.Request{Off: 0, Len: 4096, Deadline: p.Epoch()}); !errors.Is(err, ErrAdmissionFull) {
		t.Fatalf("infeasible deadline admitted (err=%v), want ErrAdmissionFull", err)
	}
	if got := ch.ctr.Get("shed-deadline-infeasible"); got != 1 {
		t.Fatalf("shed-deadline-infeasible=%d, want 1", got)
	}
	if _, err := p.Submit(openloop.Request{Off: 0, Len: 4096, Deadline: 64 * p.Epoch()}); err != nil {
		t.Fatalf("feasible deadline refused: %v", err)
	}
	// An undeadlined request is never priced — only budget-carrying work
	// can be infeasible.
	if _, err := p.Submit(openloop.Request{Off: 4096, Len: 4096}); err != nil {
		t.Fatalf("undeadlined request refused: %v", err)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Shed != 1 || s.Completed != 2 {
		t.Fatalf("shed=%d completed=%d, want 1/2", s.Shed, s.Completed)
	}
}

// TestPlaneOverloadedWorkerCountIdentical is the overload determinism
// claim: deadlines, deadline-aware shedding, boundary expiry and member
// faults together still produce byte-identical stats at 1, 2 and 8 epoch
// workers (and -race proves the barriers sound). The workload is sized so
// every overload outcome actually occurs.
func TestPlaneOverloadedWorkerCountIdentical(t *testing.T) {
	var snaps []string
	for _, workers := range []int{1, 2, 8} {
		p := newTestPool(t, 3, 1, workers, 4096, func(c *Config) {
			c.Spares = 1
			c.Admission = AdmitDeadlineAware
			c.PendingCap = 16
			c.Member.NVMC.AckAfterProgram = true
			c.Member.Audit = false
			c.ArmFaults = func(member int, g *fault.Registry) {
				switch member {
				case 0:
					g.OnOccurrence(fault.NANDProgramFail, 3).Times(1 << 30)
				case 1:
					g.Prob(fault.NANDDieTimeout, 0.2).Param(400)
				}
			}
		})
		gcfg := openloop.Config{
			Seed: 77, RatePerSec: 1e7, // well past the 3-channel faulted capacity
			Deadline: 48 * p.Epoch(),
			Tenants: []openloop.Tenant{
				{Name: "mix", Dist: openloop.Uniform, ReadPct: 60, Footprint: faultFootprint(p)},
			},
		}
		gen, err := openloop.New(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RunOpenLoop(gen, 400); err != nil {
			t.Fatal(err)
		}
		if err := p.CheckHealth(); err != nil {
			t.Fatal(err)
		}
		// The driver offers its requests: with no Notify, nothing is kept.
		if recs := p.Poll(nil, 0); len(recs) != 0 {
			t.Fatalf("workers=%d: Run retained %d Completion records nobody polls", workers, len(recs))
		}
		s := p.Stats()
		if s.Shed == 0 || s.Expired == 0 {
			t.Fatalf("workers=%d: shed=%d expired=%d — overload machinery not engaged", workers, s.Shed, s.Expired)
		}
		snaps = append(snaps, fullSnapshot(s))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("worker count changed overloaded output:\n--- workers=1 ---\n%s--- variant %d ---\n%s",
				snaps[0], i, snaps[i])
		}
	}
}

// TestPlaneNotifyMatchesPollAcrossDrain pins the delivery contract: the
// Notify callback and the Poll buffer observe the same completion records
// in the same deterministic order, and that order is stable across multiple
// Drain cycles with new submissions in between and regardless of how the
// Poll buffer is chunked.
func TestPlaneNotifyMatchesPollAcrossDrain(t *testing.T) {
	// Two submission waves with mixed reads/writes and a few hopeless
	// deadlines, so the sequence interleaves several outcomes.
	submitWave := func(t *testing.T, p *Pool, wave int) {
		t.Helper()
		for i := 0; i < 24; i++ {
			r := openloop.Request{Off: int64((wave*24+i)%64) * 4096, Len: 4096, Write: i%3 == 0}
			if i%7 == 0 {
				r.Deadline = 1 // 1 ps: expires at the first boundary
			}
			if _, err := p.Submit(r); err != nil {
				t.Fatalf("wave %d submit %d: %v", wave, i, err)
			}
		}
	}

	// Run A: Poll, drained in uneven chunks across two Drain cycles.
	polled := func() []Completion {
		p := newTestPool(t, 2, 1, 1, 4096)
		var recs []Completion
		submitWave(t, p, 0)
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 5, 0} { // 0 drains the rest
			recs = p.Poll(recs, chunk)
		}
		submitWave(t, p, 1)
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
		recs = p.Poll(recs, 7)
		recs = p.Poll(recs, 0)
		return recs
	}()

	// Run B: identical drive, records delivered through Notify instead.
	notified := func() []Completion {
		var recs []Completion
		p := newTestPool(t, 2, 1, 1, 4096, func(cfg *Config) {
			cfg.Notify = func(c Completion) { recs = append(recs, c) }
		})
		submitWave(t, p, 0)
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := p.Poll(nil, 0); got != nil {
			t.Fatalf("Poll returned %d records with Notify configured", len(got))
		}
		submitWave(t, p, 1)
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
		return recs
	}()

	if len(polled) != 48 || len(notified) != 48 {
		t.Fatalf("delivered %d polled / %d notified records, want 48 each", len(polled), len(notified))
	}
	// Err carries freshly allocated wrapped errors, so compare records by
	// rendered value, not interface identity.
	render := func(c Completion) string {
		errText := ""
		if c.Err != nil {
			errText = c.Err.Error()
		}
		return fmt.Sprintf("id=%d tenant=%d write=%v outcome=%v err=%q at=%v lat=%v late=%v lateness=%v",
			c.ID, c.Tenant, c.Write, c.Outcome, errText, c.At, c.Latency, c.Late, c.Lateness)
	}
	expired := 0
	for i := range polled {
		if render(polled[i]) != render(notified[i]) {
			t.Fatalf("record %d differs between Poll and Notify delivery:\npoll:   %+v\nnotify: %+v",
				i, polled[i], notified[i])
		}
		if polled[i].Outcome == OutcomeExpired {
			expired++
			if !errors.Is(polled[i].Err, ErrDeadlineExceeded) {
				t.Fatalf("expired record %d lacks typed error: %v", i, polled[i].Err)
			}
		}
	}
	if expired == 0 {
		t.Fatal("no expirations: the waves' hopeless deadlines never fired")
	}
	// Delivery order is per-epoch canonical channel order, not terminal-
	// instant order — but records never cross a Drain cycle: every wave-0
	// record (IDs 1..24) is delivered before any wave-1 record (25..48).
	for i, c := range polled {
		if i < 24 != (c.ID <= 24) {
			t.Fatalf("record %d (ID %d) crossed its drain cycle", i, c.ID)
		}
	}
}
