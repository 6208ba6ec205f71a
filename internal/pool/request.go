// The request engine: the front end a plane keeps before its children (its
// clock, ledger, free list and outbox), the record it keeps per request and
// per piece, the piece fold and the retry decision, written once for both
// levels of the lift
//
//	member : pool  ::  pool (socket) : fabric
//
// A Pool splits a request into fragments by its channel interleave and a
// numa.Fabric into socket pieces by its chunk directory; both then carry,
// fold and retry the same records. Queues, wires and histograms stay in
// each level.
package pool

import (
	"fmt"
	"slices"

	"nvdimmc/internal/metrics"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// Request is one plane request; its pieces complete it together.
type Request struct {
	ID     uint64
	Tenant int
	// Home attributes the request: the channel of a pool request's first
	// fragment, the source socket of a fabric request.
	Home    int
	Arrival sim.Time
	// Deadline is the absolute expiry instant (arrival + budget); zero
	// means none.
	Deadline sim.Time
	Write    bool
	// Canceled marks a doomed pool request (cancelRequest); a failed piece
	// of one is not retried. Remote marks a fabric request that crossed a
	// link, and InSub one whose Submit is still dispatching its pieces.
	Canceled, Remote, InSub bool
	Bytes                   int // total request length: per-tenant goodput metering
	// Remaining counts the pieces not yet terminal; LastDone is the latest
	// instant one became terminal.
	Remaining int
	LastDone  sim.Time
	// Err is the first terminal piece error; a request finishing with
	// Err != nil counts as shed, expired or failed by its typed chain,
	// never as completed.
	Err error
	// first is the first piece and more holds the rest; both live and
	// recycle with the record.
	first Piece
	more  []Piece
}

// Piece is the part of a request one child serves: a pool fragment on a
// member, a fabric piece on a socket.
type Piece struct {
	Req *Request
	// Member is a pool fragment's LOGICAL member, as the decoder assigned
	// it: the route table resolves it to a physical member at dispatch, so
	// failover retargets queued fragments transparently. A fabric piece
	// routes by Off through the chunk directory instead.
	Member int
	// Off is member-local for a fragment, fabric-wide for a socket piece.
	Off      int64
	N        int
	Attempts int
}

// Piece returns r's i-th piece.
func (r *Request) Piece(i int) *Piece {
	if i == 0 {
		return &r.first
	}
	return &r.more[i-1]
}

// Fold folds one terminal piece into r: it became terminal at at, ending
// with err (nil for a success), which becomes r's error unless an earlier
// piece's did. It reports whether that was r's last piece.
func (r *Request) Fold(at sim.Time, err error) bool {
	if err != nil && r.Err == nil {
		r.Err = err
	}
	if at > r.LastDone {
		r.LastDone = at
	}
	r.Remaining--
	return r.Remaining == 0
}

// Late reports whether terminal r finished past its deadline.
func (r *Request) Late() bool { return r.Deadline > 0 && r.LastDone > r.Deadline }

// Completion returns terminal r's record under outcome o: a completed
// request that finished late carries its lateness.
func (r *Request) Completion(o Outcome) Completion {
	c := Completion{
		ID:      r.ID,
		Tenant:  r.Tenant,
		Write:   r.Write,
		Outcome: o,
		Err:     r.Err,
		At:      r.LastDone,
		Latency: r.LastDone.Sub(r.Arrival),
	}
	if o == OutcomeCompleted && r.Late() {
		c.Late = true
		c.Lateness = r.LastDone.Sub(r.Deadline)
	}
	return c
}

// Front is the front end every plane keeps before its children, written
// once: the epoch clock (length, origin and current boundary), the wedge
// guard, the request IDs, the outcome ledger, the free list of request
// records and the outbox that holds terminal records, in deterministic
// boundary order, until Poll takes them. A Pool and a numa.Fabric each
// embed one; only what sits behind it differs.
type Front struct {
	epoch       sim.Duration
	origin, now sim.Time
	maxEpochs   int
	nextID      uint64
	led         Ledger
	free        []*Request
	out         []Completion
}

// NewFront returns a front end whose first boundary is origin, whose epochs
// last epoch, and whose Run and Drain calls may take maxEpochs epochs each.
func NewFront(epoch sim.Duration, origin sim.Time, maxEpochs int) Front {
	return Front{epoch: epoch, origin: origin, now: origin, maxEpochs: maxEpochs}
}

// Now returns the current epoch-boundary instant — the arrival a front-end
// embedding the plane (the network service, a host simulator) should stamp
// on requests it admits "now". Between Steps the plane sits exactly on a
// boundary, so Now is stable until the next Step.
func (fr *Front) Now() sim.Time { return fr.now }

// Origin returns the plane's first epoch boundary. Request arrivals
// (openloop.Request.Arrival) are durations relative to it.
func (fr *Front) Origin() sim.Time { return fr.origin }

// Elapsed returns the current boundary relative to Origin: the arrival of
// a request submitted now.
func (fr *Front) Elapsed() sim.Duration { return fr.now.Sub(fr.origin) }

// Epoch returns the epoch length.
func (fr *Front) Epoch() sim.Duration { return fr.epoch }

// MaxEpochs returns the wedge guard of one Run or Drain call.
func (fr *Front) MaxEpochs() int { return fr.maxEpochs }

// Ledger returns the plane's outcome ledger.
func (fr *Front) Ledger() Ledger { return fr.led }

// Settled reports whether every submitted request reached an outcome.
func (fr *Front) Settled() bool { return fr.led.Terminal() == fr.led.Submitted }

// Advance moves the current boundary k epochs on.
func (fr *Front) Advance(k int) { fr.now = fr.now.Add(sim.Duration(k) * fr.epoch) }

// Open books request r entering the plane: it takes the next ID and counts
// r in the ledger. It returns the ID and r's arrival and deadline (zero for
// none) as instants; r carries them as durations since the origin.
func (fr *Front) Open(r openloop.Request) (id uint64, arrival, deadline sim.Time) {
	fr.nextID++
	fr.led.Submit(r.Write)
	arrival = fr.origin.Add(r.Arrival)
	if r.Deadline > 0 {
		deadline = arrival.Add(r.Deadline)
	}
	return fr.nextID, arrival, deadline
}

// Track takes a retired record off the free list, or makes one, and
// overwrites all of it with opened request r split into one piece per
// extent, keeping only the capacity of its piece array.
func (fr *Front) Track(r Request, exts []Extent) *Request {
	var req *Request
	if k := len(fr.free); k > 0 {
		req = fr.free[k-1]
		fr.free = fr.free[:k-1]
	} else {
		req = new(Request)
	}
	more := req.more[:0]
	*req = r
	req.Remaining = len(exts)
	req.more = slices.Grow(more, len(exts)-1)[:len(exts)-1]
	for i, e := range exts {
		*req.Piece(i) = Piece{Req: req, Member: e.Member, Off: e.Off, N: e.Len}
	}
	return req
}

// Finish retires request r once its last piece folded, and returns its
// record: the ledger books r by its first error, typed listing the
// sentinels that make a failure typed at the plane's level. The record
// waits in the outbox for Poll, unless r resolved inside its Submit
// (InSub): its caller holds the typed error. Every piece is collected,
// swept or failed, so no queue, retry entry or child op still refers to r
// or its pieces, and r goes on the free list. It is not cleared; it reads
// as it retired until Track hands it out again.
func (fr *Front) Finish(r *Request, typed []error) Completion {
	c := r.Completion(fr.led.Retire(r.Write, r.Late(), r.Err, typed))
	if !r.InSub {
		fr.out = append(fr.out, c)
	}
	fr.free = append(fr.free, r)
	return c
}

// Poll removes up to max buffered records (all when max <= 0) and appends
// them to dst. Every request that does not fail synchronously at Submit
// leaves exactly one. Draining into a buffer the caller reuses allocates
// nothing once the buffer has grown.
func (fr *Front) Poll(dst []Completion, max int) []Completion {
	if max <= 0 || max > len(fr.out) {
		max = len(fr.out)
	}
	dst = append(dst, fr.out[:max]...)
	n := copy(fr.out, fr.out[max:])
	clear(fr.out[n:])
	fr.out = fr.out[:n]
	return dst
}

// RetryVerdict is the retry decision for a failed piece (Supervisor.Retry):
// queued for a retry, or retired because its request was canceled, its
// attempts are exhausted, or a retry could not land inside its deadline.
type RetryVerdict int

const (
	RetryQueued RetryVerdict = iota
	RetryCanceled
	RetryExhausted
	RetryInfeasible
)

// MaxRetries caps a piece's retries at both levels: a pool fragment's
// redispatches before its request fails with ErrPoolDegraded, and a fabric
// request's cross-socket re-dispatches before it fails with
// numa.ErrFabricDegraded.
const MaxRetries = 4

// RetryPolicy is a level's side of the retry decision.
type RetryPolicy struct {
	// Epoch is the level's epoch length, which prices the backoff.
	Epoch sim.Duration
	// Degraded is the sentinel an exhausted piece's error wraps:
	// ErrPoolDegraded, numa.ErrFabricDegraded.
	Degraded error
	// Counters names the counter each verdict books, in verdict order.
	Counters [4]string
}

// Retry decides what becomes of piece f, which failed with err at the
// boundary now, books the verdict in ctr, and queues f when it is retried.
// A piece of a canceled request is not retried. Otherwise it is retried
// with capped exponential backoff (RetryBackoff) while attempts remain,
// unless the retry cannot land inside the request's deadline: its earliest
// finish is the backoff epochs out plus eta, the level's estimate of one
// more service (a pool channel's service EWMA, a fabric link's one-way
// latency), and re-arming past the deadline only burns epochs on work that
// cannot count. A terminal verdict's error is the request's typed chain.
func (s *Supervisor[S]) Retry(f *Piece, err error, now sim.Time, eta sim.Duration, ctr *metrics.Counters) (RetryVerdict, error) {
	v, err := s.retry(f, err, now, eta)
	ctr.Inc(s.Policy.Counters[v])
	return v, err
}

func (s *Supervisor[S]) retry(f *Piece, err error, now sim.Time, eta sim.Duration) (RetryVerdict, error) {
	if f.Req.Canceled {
		return RetryCanceled, nil
	}
	f.Attempts++
	if f.Attempts > MaxRetries {
		return RetryExhausted, fmt.Errorf("%w (%d attempts): %w", s.Policy.Degraded, f.Attempts, err)
	}
	delay := RetryBackoff(f.Attempts)
	if dl := f.Req.Deadline; dl > 0 && now.Add(sim.Duration(delay)*s.Policy.Epoch).Add(eta) > dl {
		return RetryInfeasible, fmt.Errorf("pool: retry %d cannot land inside deadline: %w (last error: %w)",
			f.Attempts, ErrDeadlineExceeded, err)
	}
	s.Retries = append(s.Retries, Retry{Item: f, Ready: s.Epochs + delay})
	return RetryQueued, nil
}
