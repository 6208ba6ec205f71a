package pool

import (
	"fmt"

	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// Plane is the request-plane contract the one Run/Drain driver steps: a
// socket pool (*Pool) or a multi-socket fabric (numa.Fabric) behind the
// same fixed front end, the way the paper's DDR interface fronts whatever
// module sits behind it. Every method is called at an epoch boundary only.
// Completion is poll-only, like the host polling a CP slot for its ack.
// Both planes embed one Front, which supplies Poll, Elapsed, Epoch,
// MaxEpochs and Ledger.
type Plane interface {
	// Submit admits one request and returns its ID. A synchronous refusal
	// returns the typed error, is booked in the ledger and leaves no
	// record; every other request leaves exactly one record for Poll.
	Submit(r openloop.Request) (uint64, error)
	// Poll removes up to max buffered records (all when max <= 0), in
	// retirement order, and appends them to dst.
	Poll(dst []Completion, max int) []Completion
	// Step advances one epoch; QuietEpochs reports how many upcoming epochs
	// (at most limit) are provably quiet, and StepQuiet advances that many
	// in one batch, byte-identical to as many Steps.
	Step()
	QuietEpochs(limit int) int
	StepQuiet(k int)
	// Quiesced reports that every request is terminal and no background
	// work remains.
	Quiesced() bool
	// Elapsed is the current boundary relative to the plane's origin, the
	// frame request arrivals are stamped in; Epoch is the epoch length.
	Elapsed() sim.Duration
	Epoch() sim.Duration
	// MaxEpochs is the wedge guard: the most epochs one Run or Drain call
	// may take, however old the plane already is.
	MaxEpochs() int
	// Capacity bounds request addresses: [0, Capacity).
	Capacity() int64
	Ledger() Ledger
}

// DefaultMaxEpochs is the wedge guard of a pool or fabric whose Config
// leaves MaxEpochs zero: 1<<22 epochs, about 33 s simulated at the member
// tREFI, per Run or Drain call.
const DefaultMaxEpochs = 1 << 22

// Run feeds the requests next yields (until it reports false) through pl
// and returns once every admitted request reached a terminal outcome. next
// is called at epoch boundaries only: each epoch's arrivals are submitted,
// then the plane advances, one quiet batch at a time when its lookahead
// proves one (bounded by the next buffered arrival), else one Step. With
// lookahead disabled every epoch is a full Step, the lockstep oracle the
// batched path matches byte for byte. Sheds and throttles are terminal
// outcomes booked at submission, so they are not Run failures. After each
// advance Run polls the plane and hands every record, in order, to sink
// (nil discards them), so a successful Run leaves nothing buffered. Run
// fails once it has taken MaxEpochs epochs.
func Run(pl Plane, next func() (openloop.Request, bool), sink func(Completion)) error {
	var look openloop.Request
	var recs []Completion
	have, exhausted := false, false
	for taken := 0; ; {
		if taken >= pl.MaxEpochs() {
			return wedged(pl, taken)
		}
		epochEnd := pl.Elapsed() + pl.Epoch()
		for !exhausted {
			if !have {
				if look, have = next(); !have {
					exhausted = true
					break
				}
			}
			if look.Arrival >= epochEnd {
				break
			}
			pl.Submit(look)
			have = false
		}
		// Bound a quiet batch by the next buffered arrival (or, once the
		// source is dry and the plane quiesced, take the single bookkeeping
		// step the lockstep loop would).
		limit := pl.MaxEpochs() - taken
		if have {
			if g := int((look.Arrival - pl.Elapsed()) / pl.Epoch()); g < limit {
				limit = g
			}
		} else if exhausted && pl.Quiesced() {
			limit = 0
		}
		taken += advance(pl, limit)
		recs = pl.Poll(recs[:0], 0)
		if sink != nil {
			for _, c := range recs {
				sink(c)
			}
		}
		if exhausted && !have && pl.Quiesced() {
			return nil
		}
	}
}

// RunOpenLoop feeds count requests from gen through pl, records to sink.
func RunOpenLoop(pl Plane, gen *openloop.Generator, count int, sink func(Completion)) error {
	issued := 0
	return Run(pl, func() (openloop.Request, bool) {
		if issued >= count {
			return openloop.Request{}, false
		}
		issued++
		return gen.Next(), true
	}, sink)
}

// Drain steps pl until it quiesces, or fails once it has taken MaxEpochs
// epochs, batching provably quiet spans (retry backoffs waiting out their
// epochs) through the lookahead. Records stay buffered for the caller's
// Poll.
func Drain(pl Plane) error {
	for taken := 0; !pl.Quiesced(); {
		if taken >= pl.MaxEpochs() {
			return wedged(pl, taken)
		}
		taken += advance(pl, pl.MaxEpochs()-taken)
	}
	return nil
}

// advance moves pl past the current boundary: one quiet batch of up to
// limit epochs when QuietEpochs proves one, else one Step. It returns the
// epochs taken.
func advance(pl Plane, limit int) int {
	if k := pl.QuietEpochs(limit); k > 1 {
		pl.StepQuiet(k)
		return k
	}
	pl.Step()
	return 1
}

func wedged(pl Plane, taken int) error {
	l := pl.Ledger()
	return fmt.Errorf("%T: %d epochs without draining (%d/%d requests terminal) — wedged?",
		pl, taken, l.Terminal(), l.Submitted)
}
