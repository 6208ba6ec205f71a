package pool

import (
	"errors"
	"fmt"
)

// Ledger is a request plane's terminal-outcome book: how many requests
// entered, how each one ended, and the same split for writes. Both planes
// (the pool and the NUMA fabric) and every QoS tenant keep one, and all of
// them classify through the same switch (OutcomeOf) and audit through the
// same checks (Check), so the conservation contract cannot drift between
// layers. Only the set of typed-failure sentinels differs per layer; the
// caller passes it to Retire.
type Ledger struct {
	Submitted uint64
	// Completed + Failed + Shed + Expired + Throttled == Submitted once the
	// plane drains. Failed counts typed fault failures (retries exhausted,
	// member quarantined, socket evacuated); Shed counts admission drops
	// (ErrAdmissionFull); Expired deadline misses before completion
	// (ErrDeadlineExceeded); Throttled token-bucket refusals
	// (ErrTenantThrottled).
	Completed uint64
	Failed    uint64
	Shed      uint64
	Expired   uint64
	Throttled uint64
	// CompletedLate counts completions that landed past their deadline:
	// completed work, just late.
	CompletedLate uint64
	// WritesAcked + WritesFailed + WritesShed + WritesExpired +
	// WritesThrottled == WritesIn means no acked write was lost: every
	// other write ended typed, so its submitter was told.
	WritesIn        uint64
	WritesAcked     uint64
	WritesFailed    uint64
	WritesShed      uint64
	WritesExpired   uint64
	WritesThrottled uint64
	// UntypedFailures counts failures whose chain holds none of the layer's
	// typed sentinels; Check demands zero.
	UntypedFailures uint64
	// FirstFailure samples the first failed request's error (nil when none).
	FirstFailure error
}

// OutcomeOf is the one error-to-outcome switch: nil completes, the overload
// sentinels map to their outcomes, and anything else is a failure.
func OutcomeOf(err error) Outcome {
	switch {
	case err == nil:
		return OutcomeCompleted
	case errors.Is(err, ErrTenantThrottled):
		return OutcomeThrottled
	case errors.Is(err, ErrAdmissionFull):
		return OutcomeShed
	case errors.Is(err, ErrDeadlineExceeded):
		return OutcomeExpired
	}
	return OutcomeFailed
}

// Submit books one request entering the plane.
func (l *Ledger) Submit(write bool) {
	l.Submitted++
	if write {
		l.WritesIn++
	}
}

// Retire books one terminal request by its first error and returns the
// outcome. late marks a completion past its deadline; typed lists the
// sentinels that make a failure typed at the caller's layer.
func (l *Ledger) Retire(write, late bool, err error, typed []error) Outcome {
	o := OutcomeOf(err)
	switch o {
	case OutcomeCompleted:
		l.Completed++
		if write {
			l.WritesAcked++
		}
		if late {
			l.CompletedLate++
		}
	case OutcomeThrottled:
		l.Throttled++
		if write {
			l.WritesThrottled++
		}
	case OutcomeShed:
		l.Shed++
		if write {
			l.WritesShed++
		}
	case OutcomeExpired:
		l.Expired++
		if write {
			l.WritesExpired++
		}
	default:
		l.Failed++
		if write {
			l.WritesFailed++
		}
		if l.FirstFailure == nil {
			l.FirstFailure = err
		}
		if !isAny(err, typed) {
			l.UntypedFailures++
		}
	}
	return o
}

func isAny(err error, targets []error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// Terminal is the conservation left-hand side: requests that reached an
// outcome.
func (l Ledger) Terminal() uint64 {
	return l.Completed + l.Failed + l.Shed + l.Expired + l.Throttled
}

// WritesLost is the write-conservation residual: writes that entered but
// were neither acked nor ended typed. Nonzero means an acked write was lost
// (or, wrapped, over-counted).
func (l Ledger) WritesLost() uint64 {
	return l.WritesIn - l.WritesAcked - l.WritesFailed - l.WritesShed - l.WritesExpired - l.WritesThrottled
}

// Check is the ledger's audit: every submitted request reached exactly one
// outcome, no write was lost, and every failure was typed.
func (l Ledger) Check() error {
	if t := l.Terminal(); t != l.Submitted {
		return fmt.Errorf("%d of %d requests unaccounted (completed %d + shed %d + expired %d + failed %d + throttled %d)",
			l.Submitted-t, l.Submitted, l.Completed, l.Shed, l.Expired, l.Failed, l.Throttled)
	}
	if l.WritesLost() != 0 {
		return fmt.Errorf("%d writes admitted but %d acked + %d typed-failed + %d shed + %d expired + %d throttled (acked-write loss)",
			l.WritesIn, l.WritesAcked, l.WritesFailed, l.WritesShed, l.WritesExpired, l.WritesThrottled)
	}
	if l.UntypedFailures != 0 {
		return fmt.Errorf("%d requests failed without a typed error", l.UntypedFailures)
	}
	return nil
}

// add sums o's counters into l (FirstFailure is not summed).
func (l *Ledger) add(o Ledger) {
	l.Submitted += o.Submitted
	l.Completed += o.Completed
	l.Failed += o.Failed
	l.Shed += o.Shed
	l.Expired += o.Expired
	l.Throttled += o.Throttled
	l.CompletedLate += o.CompletedLate
	l.WritesIn += o.WritesIn
	l.WritesAcked += o.WritesAcked
	l.WritesFailed += o.WritesFailed
	l.WritesShed += o.WritesShed
	l.WritesExpired += o.WritesExpired
	l.WritesThrottled += o.WritesThrottled
	l.UntypedFailures += o.UntypedFailures
}
