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
type Plane interface {
	// Offer submits a driver-owned request: admitted exactly like the
	// plane's Submit, but its terminal record reaches only a configured
	// Notify, never Poll. Synchronous refusals are booked in the ledger.
	Offer(r openloop.Request)
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
	// Epochs counts the epochs taken; MaxEpochs is the wedge guard.
	Epochs() int
	MaxEpochs() int
	// Capacity bounds request addresses: [0, Capacity).
	Capacity() int64
	Ledger() Ledger
}

// Run feeds the requests next yields (until it reports false) through pl
// and returns once every admitted request reached a terminal outcome. next
// is called at epoch boundaries only: each epoch's arrivals are offered,
// then the plane advances, one quiet batch at a time when its lookahead
// proves one (bounded by the next buffered arrival), else one Step. With
// lookahead disabled every epoch is a full Step, the lockstep oracle the
// batched path matches byte for byte. Sheds and throttles are terminal
// outcomes booked at submission, so they are not Run failures.
func Run(pl Plane, next func() (openloop.Request, bool)) error {
	var look openloop.Request
	have, exhausted := false, false
	for {
		if pl.Epochs() >= pl.MaxEpochs() {
			return wedged(pl)
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
			pl.Offer(look)
			have = false
		}
		// Bound a quiet batch by the next buffered arrival (or, once the
		// source is dry and the plane quiesced, take the single bookkeeping
		// step the lockstep loop would).
		limit := pl.MaxEpochs() - pl.Epochs()
		if have {
			if g := int((look.Arrival - pl.Elapsed()) / pl.Epoch()); g < limit {
				limit = g
			}
		} else if exhausted && pl.Quiesced() {
			limit = 0
		}
		advance(pl, limit)
		if exhausted && !have && pl.Quiesced() {
			return nil
		}
	}
}

// RunOpenLoop feeds count requests from gen through pl.
func RunOpenLoop(pl Plane, gen *openloop.Generator, count int) error {
	issued := 0
	return Run(pl, func() (openloop.Request, bool) {
		if issued >= count {
			return openloop.Request{}, false
		}
		issued++
		return gen.Next(), true
	})
}

// Drain steps pl until it quiesces (or the MaxEpochs guard trips),
// batching provably quiet spans (retry backoffs waiting out their epochs)
// through the lookahead.
func Drain(pl Plane) error {
	for !pl.Quiesced() {
		if pl.Epochs() >= pl.MaxEpochs() {
			return wedged(pl)
		}
		advance(pl, pl.MaxEpochs()-pl.Epochs())
	}
	return nil
}

// advance moves pl past the current boundary: one quiet batch of up to
// limit epochs when QuietEpochs proves one, else one Step.
func advance(pl Plane, limit int) {
	if k := pl.QuietEpochs(limit); k > 1 {
		pl.StepQuiet(k)
	} else {
		pl.Step()
	}
}

func wedged(pl Plane) error {
	l := pl.Ledger()
	return fmt.Errorf("%T: %d epochs without draining (%d/%d requests terminal) — wedged?",
		pl, pl.Epochs(), l.Terminal(), l.Submitted)
}
