package pool

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// outcomeCounts / writeCounts index a ledger's outcome and write counters
// by Outcome, so a test can demand that exactly one of them moved.
func outcomeCounts(l Ledger) [5]uint64 {
	return [5]uint64{
		OutcomeCompleted: l.Completed, OutcomeShed: l.Shed, OutcomeExpired: l.Expired,
		OutcomeFailed: l.Failed, OutcomeThrottled: l.Throttled,
	}
}

func writeCounts(l Ledger) [5]uint64 {
	return [5]uint64{
		OutcomeCompleted: l.WritesAcked, OutcomeShed: l.WritesShed, OutcomeExpired: l.WritesExpired,
		OutcomeFailed: l.WritesFailed, OutcomeThrottled: l.WritesThrottled,
	}
}

// TestLedgerRetireTable: every typed sentinel, retired for a read and for a
// write, moves exactly one outcome counter and (for the write) exactly one
// write counter. No terminal write, shed, expired and throttled included,
// counts as lost; only an untyped failure fails the audit.
func TestLedgerRetireTable(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		want    Outcome
		untyped bool
	}{
		{"completed", nil, OutcomeCompleted, false},
		{"throttled", fmt.Errorf("tenant 3: %w", ErrTenantThrottled), OutcomeThrottled, false},
		{"shed", fmt.Errorf("channel 1: %w", ErrAdmissionFull), OutcomeShed, false},
		{"expired", fmt.Errorf("request 9: %w", ErrDeadlineExceeded), OutcomeExpired, false},
		{"degraded", fmt.Errorf("%w (4 attempts): media", ErrPoolDegraded), OutcomeFailed, false},
		{"quarantined", fmt.Errorf("logical 2: %w", ErrMemberQuarantined), OutcomeFailed, false},
		{"untyped", errors.New("silent media error"), OutcomeFailed, true},
	}
	for _, c := range cases {
		for _, write := range []bool{false, true} {
			label := fmt.Sprintf("%s write=%v", c.name, write)
			var l Ledger
			l.Submit(write)
			if o := l.Retire(write, false, c.err, poolTyped); o != c.want || OutcomeOf(c.err) != c.want {
				t.Fatalf("%s: outcome %v (OutcomeOf %v), want %v", label, o, OutcomeOf(c.err), c.want)
			}
			var want [5]uint64
			want[c.want] = 1
			if got := outcomeCounts(l); got != want {
				t.Fatalf("%s: outcome counters %v, want %v", label, got, want)
			}
			if !write {
				want = [5]uint64{}
			}
			if got := writeCounts(l); got != want {
				t.Fatalf("%s: write counters %v, want %v", label, got, want)
			}
			if l.Terminal() != 1 || l.WritesLost() != 0 {
				t.Fatalf("%s: terminal=%d writes-lost=%d, want 1 and 0", label, l.Terminal(), l.WritesLost())
			}
			err := l.Check()
			switch {
			case c.untyped && (err == nil || !strings.Contains(err.Error(), "typed")):
				t.Fatalf("%s: Check = %v, want the untyped-failure verdict", label, err)
			case !c.untyped && err != nil:
				t.Fatalf("%s: Check = %v", label, err)
			}
			if c.want == OutcomeFailed && l.FirstFailure != c.err {
				t.Fatalf("%s: FirstFailure %v, want %v", label, l.FirstFailure, c.err)
			}
		}
	}
}

// TestLedgerAudit: lateness counts only completions, the first failure
// sticks, and Check catches an unaccounted request and a lost write.
func TestLedgerAudit(t *testing.T) {
	var l Ledger
	l.Submit(false)
	l.Retire(false, true, nil, poolTyped)
	l.Submit(false)
	l.Retire(false, true, ErrDeadlineExceeded, poolTyped)
	if l.CompletedLate != 1 {
		t.Fatalf("CompletedLate = %d, want 1 (an expiry is not a late completion)", l.CompletedLate)
	}
	first := fmt.Errorf("first: %w", ErrPoolDegraded)
	for _, err := range []error{first, fmt.Errorf("second: %w", ErrPoolDegraded)} {
		l.Submit(false)
		l.Retire(false, false, err, poolTyped)
	}
	if l.FirstFailure != first {
		t.Fatalf("FirstFailure = %v, want %v", l.FirstFailure, first)
	}
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}

	open := l
	open.Submit(false)
	if err := open.Check(); err == nil || !strings.Contains(err.Error(), "unaccounted") {
		t.Fatalf("open request: Check = %v, want unaccounted", err)
	}
	lost := l
	lost.WritesIn++ // a write that entered and never ended typed
	if lost.WritesLost() != 1 {
		t.Fatalf("WritesLost = %d, want 1", lost.WritesLost())
	}
	if err := lost.Check(); err == nil || !strings.Contains(err.Error(), "acked-write loss") {
		t.Fatalf("lost write: Check = %v, want acked-write loss", err)
	}
}
