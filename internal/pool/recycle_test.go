package pool

import (
	"fmt"
	"testing"

	"nvdimmc/internal/fault"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// TestHitRequestZeroAlloc: once warm, a cache-resident request allocates
// nothing from Submit to its Completion record, under lookahead (members
// park between requests) and lockstep, whether it is one fragment or spans
// both channels. The records are drained with Poll into a buffer the
// caller reuses.
func TestHitRequestZeroAlloc(t *testing.T) {
	for _, lockstep := range []bool{false, true} {
		for _, n := range []int{4096, 8192} {
			p := newTestPool(t, 2, 1, 2, 4096, func(c *Config) { c.DisableLookahead = lockstep })
			foot := p.CachedFootprint() / 8192 * 8192
			var done []Completion
			var off int64
			hit := func() {
				if _, err := p.Submit(openloop.Request{Arrival: p.Elapsed(), Off: off, Len: n}); err != nil {
					t.Fatal(err)
				}
				off = (off + int64(n)) % foot
				for len(done) == 0 {
					p.Step()
					done = p.Poll(done, 0)
				}
				if len(done) != 1 || done[0].Outcome != OutcomeCompleted {
					t.Fatalf("lockstep=%v len=%d: completions %+v, want one completed hit", lockstep, n, done)
				}
				done = done[:0]
			}
			for i := 0; i < 200; i++ {
				hit()
			}
			if allocs := testing.AllocsPerRun(200, hit); allocs != 0 {
				t.Errorf("lockstep=%v len=%d: %v allocs per hit request, want 0", lockstep, n, allocs)
			}
		}
	}
}

// TestRequestRecordsRecycleOnce drives multi-fragment requests through every
// way a piece retires: completion, shed-oldest displacement, deadline
// expiry, cancellation with a sibling piece in flight, and retry after an
// uncorrectable read. After every Submit and Step it checks that a request record
// is on the free list exactly when its last piece has retired: each
// retired request's record is there once, no live record is, the live
// records' unretired pieces account for every in-flight fragment, and
// every accepted request leaves exactly one Completion.
func TestRequestRecordsRecycleOnce(t *testing.T) {
	p := newTestPool(t, 3, 1, 1, 4096, func(c *Config) {
		c.Admission = AdmitShedOldest
		c.PendingCap = 6
		c.QueueCap = 4
		c.Window = 3
		c.QuarantineFragErrs = 1 << 30 // keep every member in service
		c.ArmFaults = func(member int, g *fault.Registry) {
			if member == 1 {
				g.Always(fault.NANDReadBitFlip) // uncorrectable: a miss fails
			}
		}
	})
	foot := faultFootprint(p)
	rng := sim.NewRand(5)
	live := map[uint64]*request{}
	retired := map[uint64]bool{}
	var done []Completion
	allocated, canceledInFlight := 0, 0

	// waiting counts each record's pieces held, queued or backing off.
	waiting := func() map[*request]int {
		w := map[*request]int{}
		for _, ch := range p.chans {
			for _, f := range ch.pending {
				w[f.req]++
			}
			for _, f := range ch.queue {
				w[f.req]++
			}
			for i := range ch.tq {
				for _, f := range ch.tq[i].fifo {
					w[f.req]++
				}
			}
		}
		for _, e := range p.retries {
			w[e.f.req]++
		}
		return w
	}
	check := func(when string) {
		t.Helper()
		done = p.Poll(done[:0], 0)
		free := map[*request]int{}
		for _, r := range p.reqFree {
			free[r]++
		}
		for _, c := range done {
			r, ok := live[c.ID]
			if !ok || retired[c.ID] {
				t.Fatalf("%s: completion for request %d, which is not live", when, c.ID)
			}
			if free[r] != 1 || r.remaining != 0 {
				t.Fatalf("%s: request %d retired, its record is on the free list %d times with %d pieces left",
					when, c.ID, free[r], r.remaining)
			}
			delete(live, c.ID)
			retired[c.ID] = true
		}
		if len(p.reqFree) != allocated-len(live) {
			t.Fatalf("%s: %d records free, want %d allocated - %d live", when, len(p.reqFree), allocated, len(live))
		}
		w := waiting()
		inflight := 0
		for _, ch := range p.chans {
			inflight += ch.inflight
		}
		for id, r := range live {
			if free[r] != 0 || r.id != id {
				t.Fatalf("%s: live request %d: record free %d times, holds request %d", when, id, free[r], r.id)
			}
			flying := r.remaining - w[r]
			if flying < 0 {
				t.Fatalf("%s: request %d has %d pieces left but %d waiting", when, id, r.remaining, w[r])
			}
			if r.canceled && flying > 0 {
				canceledInFlight++
			}
			inflight -= flying
		}
		if inflight != 0 {
			t.Fatalf("%s: %d in-flight fragments belong to no live request", when, inflight)
		}
		for r := range w {
			if free[r] != 0 {
				t.Fatalf("%s: a free record (request %d) still has a waiting piece", when, r.id)
			}
		}
	}

	for epoch := 0; epoch < 400; epoch++ {
		if epoch < 300 {
			for n := rng.Intn(5); n > 0; n-- {
				r := openloop.Request{
					Arrival: p.Elapsed(),
					Off:     rng.Int63n(foot/4096) * 4096,
					Len:     4096 * (1 + rng.Intn(4)),
					Write:   rng.Intn(3) == 0,
				}
				if r.Off+int64(r.Len) > foot {
					r.Off = foot - int64(r.Len)
				}
				if rng.Intn(2) == 0 {
					r.Deadline = sim.Duration(2+rng.Intn(12)) * p.Epoch()
				}
				fresh := len(p.reqFree) == 0
				id, err := p.Submit(r)
				if err != nil {
					t.Fatalf("epoch %d: Submit: %v", epoch, err)
				}
				if fresh {
					allocated++
				}
				for rec := range waiting() {
					if rec.id == id {
						live[id] = rec
					}
				}
				if live[id] == nil {
					t.Fatalf("epoch %d: request %d queued no piece", epoch, id)
				}
				check(fmt.Sprintf("epoch %d submit %d", epoch, id))
			}
		}
		p.Step()
		check(fmt.Sprintf("epoch %d step", epoch))
	}
	for i := 0; len(live) > 0; i++ {
		if i > 10000 {
			t.Fatalf("%d requests never retired", len(live))
		}
		p.Step()
		check(fmt.Sprintf("drain step %d", i))
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	for _, c := range []string{"frags-shed-oldest", "frags-expired", "frags-retried"} {
		if s.Ctr.Get(c) == 0 {
			t.Errorf("%s = 0: the run never took that path", c)
		}
	}
	if canceledInFlight == 0 {
		t.Error("no canceled request ever had a piece in flight")
	}
	if allocated >= len(retired)/4 {
		t.Errorf("%d records allocated for %d requests: records are not being reused", allocated, len(retired))
	}
}
