package pool

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nvdimmc/internal/metrics"
	"nvdimmc/internal/sim"
)

// TestRetryDecision runs both levels' arguments through every verdict of
// the one retry decision (Supervisor.Retry): the attempt cap MaxRetries
// that both levels share, a pool's channel EWMA and ErrPoolDegraded, and a
// fabric's link latency and degraded sentinel (errFabric stands in
// for numa.ErrFabricDegraded, which this package cannot import). A piece is queued on the RetryBackoff schedule
// until its cap is spent, then exhausted; a retry whose backoff plus ETA
// overshoots the deadline is infeasible, and one landing exactly on it is
// still queued; a piece of a canceled request is retired without a retry.
// Each verdict books its level's counter.
func TestRetryDecision(t *testing.T) {
	const epoch = 7800 * sim.Nanosecond
	errFabric := errors.New("numa: fabric degraded, retries exhausted")
	cause := errors.New("injected media error")
	now := sim.Time(40 * epoch)
	for _, lv := range []struct {
		name string
		pol  RetryPolicy
		eta  sim.Duration
	}{
		{"pool", RetryPolicy{Epoch: epoch, Degraded: ErrPoolDegraded,
			Counters: [...]string{"frags-retried", "frags-canceled", "frags-failed", "frags-retry-expired"}}, 3 * sim.Microsecond},
		{"fabric", RetryPolicy{Epoch: epoch, Degraded: errFabric,
			Counters: [...]string{"fab-retry-queued", "fab-retry-canceled", "fab-retry-exhausted", "fab-retry-infeasible"}}, 400 * sim.Nanosecond},
	} {
		s := Supervisor[memberProbe]{Policy: lv.pol, Epochs: 40}
		ctr := metrics.NewCounters()
		f := &Piece{Req: &Request{Remaining: 1}}
		for a := 1; a <= MaxRetries; a++ {
			v, err := s.Retry(f, cause, now, lv.eta, ctr)
			if v != RetryQueued || err != nil || f.Attempts != a {
				t.Fatalf("%s attempt %d: verdict %v err %v attempts %d, want queued", lv.name, a, v, err, f.Attempts)
			}
			if got := s.Retries[len(s.Retries)-1]; got.Item != f || got.Ready != s.Epochs+RetryBackoff(a) {
				t.Fatalf("%s attempt %d: ready at epoch %d, want %d", lv.name, a, got.Ready, s.Epochs+RetryBackoff(a))
			}
		}
		v, err := s.Retry(f, cause, now, lv.eta, ctr)
		if v != RetryExhausted || !errors.Is(err, lv.pol.Degraded) || !errors.Is(err, cause) ||
			!strings.Contains(err.Error(), fmt.Sprintf("(%d attempts)", MaxRetries+1)) {
			t.Fatalf("%s past the cap: verdict %v err %v, want exhausted after %d attempts", lv.name, v, err, MaxRetries+1)
		}
		if len(s.Retries) != MaxRetries {
			t.Fatalf("%s: %d retries queued, want %d", lv.name, len(s.Retries), MaxRetries)
		}

		// The first retry finishes one epoch of backoff plus the ETA out.
		land := now.Add(epoch).Add(lv.eta)
		f = &Piece{Req: &Request{Deadline: land - 1, Remaining: 1}}
		if v, err := s.Retry(f, cause, now, lv.eta, ctr); v != RetryInfeasible || !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, cause) {
			t.Fatalf("%s: verdict %v err %v, want infeasible", lv.name, v, err)
		}
		f = &Piece{Req: &Request{Deadline: land, Remaining: 1}}
		if v, err := s.Retry(f, cause, now, lv.eta, ctr); v != RetryQueued || err != nil {
			t.Fatalf("%s: retry landing on the deadline: verdict %v err %v, want queued", lv.name, v, err)
		}

		f = &Piece{Req: &Request{Canceled: true, Remaining: 1}}
		queued := len(s.Retries)
		if v, err := s.Retry(f, cause, now, lv.eta, ctr); v != RetryCanceled || err != nil || f.Attempts != 0 || len(s.Retries) != queued {
			t.Fatalf("%s: canceled request: verdict %v err %v attempts %d, want retired unretried", lv.name, v, err, f.Attempts)
		}
		for v, want := range []uint64{MaxRetries + 1, 1, 1, 1} {
			if got := ctr.Get(lv.pol.Counters[v]); got != want {
				t.Fatalf("%s: %q = %d, want %d", lv.name, lv.pol.Counters[v], got, want)
			}
		}
	}
}

// TestRequestFold: a record is split into one piece per extent, and the
// pieces fold into their request in any order; the first
// error wins, LastDone is the latest instant, only the last piece reports
// the request terminal, and its Completion carries latency and, for a late
// completion only, lateness. A recycled record comes back whole, and a
// request retiring inside its Submit leaves no record.
func TestRequestFold(t *testing.T) {
	var q Front
	arrival := sim.Time(1000)
	exts := []Extent{{Member: 0, Off: 0, Len: 4096}, {Member: 1, Off: 0, Len: 4096}, {Member: 0, Off: 4096, Len: 512}}
	r := q.Track(Request{ID: 7, Tenant: 2, Arrival: arrival, Deadline: arrival + 50, Write: true}, exts)
	for i, e := range exts {
		if p := r.Piece(i); *p != (Piece{Req: r, Member: e.Member, Off: e.Off, N: e.Len}) || r.Remaining != 3 {
			t.Fatalf("piece %d = %+v of %d, want extent %+v of 3", i, *p, r.Remaining, e)
		}
	}
	first, second := errors.New("first"), errors.New("second")
	for i, step := range []struct {
		at   sim.Time
		err  error
		last bool
	}{{arrival + 80, nil, false}, {arrival + 20, first, false}, {arrival + 60, second, true}} {
		if last := r.Fold(step.at, step.err); last != step.last {
			t.Fatalf("piece %d: last = %v, want %v", i, last, step.last)
		}
	}
	if r.Err != first || r.LastDone != arrival+80 || !r.Late() {
		t.Fatalf("folded request err %v last done %v late %v, want first error at %v, late", r.Err, r.LastDone, r.Late(), arrival+80)
	}
	want := Completion{ID: 7, Tenant: 2, Write: true, Outcome: OutcomeCompleted, Err: first, At: arrival + 80, Latency: 80, Late: true, Lateness: 30}
	if c := r.Completion(OutcomeCompleted); c != want {
		t.Fatalf("completion %+v, want %+v", c, want)
	}
	want.Outcome, want.Late, want.Lateness = OutcomeFailed, false, 0
	if c := r.Completion(OutcomeFailed); c != want {
		t.Fatalf("failed completion %+v, want %+v", c, want)
	}

	r.Canceled = true
	q.Finish(r, nil)
	r2 := q.Track(Request{ID: 8, InSub: true}, exts[:2])
	if r2 != r || r2.Canceled || r2.Err != nil || r2.LastDone != 0 || len(r2.more) != 1 {
		t.Fatalf("recycled record %+v, want request 8 overwritten whole with 2 pieces", r2)
	}
	// A request that resolved inside Submit leaves no record.
	q.Finish(r2, nil)
	if recs := q.Poll(nil, 0); len(recs) != 1 || recs[0].ID != 7 {
		t.Fatalf("outbox %+v, want request 7's record only", recs)
	}
}
