package pool

import (
	"errors"
	"fmt"

	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/sim"
)

// Typed failure sentinels. Every request the pool gives up on carries one of
// these in its error chain (CheckHealth enforces it): nothing is ever
// silently dropped.
var (
	// ErrMemberQuarantined: the fragment's routed member is quarantined and
	// no spare has taken over its stripes.
	ErrMemberQuarantined = errors.New("pool: member quarantined")
	// ErrPoolDegraded wraps the last per-fragment error once the retry
	// budget is exhausted; errors.Is also matches the underlying driver
	// sentinel (nvdc.ErrReadOnly, nvdc.ErrMediaRead, ...).
	ErrPoolDegraded = errors.New("pool: request failed after retries")
)

// MemberState is a member's position in the supervisor's lattice (Health),
// named for members:
//
//	Up -> Suspect -> Quarantined -> Evacuated
type MemberState Health

const (
	// StateUp: serving traffic normally.
	StateUp = MemberState(HealthUp)
	// StateSuspect: error activity observed (driver Degraded, error-counter
	// growth, or fragment failures); still serving, watched more closely.
	StateSuspect = MemberState(HealthSuspect)
	// StateQuarantined: the pool stopped routing front-end traffic to this
	// member (driver ReadOnly, auditor violation, or the fragment-failure
	// threshold). Evacuation reads for a rebuild are the only ops allowed.
	StateQuarantined = MemberState(HealthCondemned)
	// StateEvacuated: the member's resident state has been rebuilt onto a
	// spare; it receives no traffic of any kind.
	StateEvacuated = MemberState(HealthEvacuated)
)

func (s MemberState) String() string { return Health(s).Name("quarantined") }

// QuarantineFragErrs quarantines a member once this many of its dispatched
// fragments have failed.
const QuarantineFragErrs = 8

// memberHealth is the pool's per-physical-member record beside the
// supervisor's lattice: its role and its fragment failures. Read and
// written only at epoch boundaries.
type memberHealth struct {
	// spare marks members constructed beyond the decoder's logical set.
	spare bool
	// inService: a spare actively serving a logical position.
	inService bool
	// logical is the logical index routed to this member (-1 for an idle or
	// drained member).
	logical int
	// fragErrs counts fragment dispatches that completed with an error on
	// this member (lifetime).
	fragErrs int
}

// memberProbe is what a probe reads off one member: its driver's mode and
// error events, its auditor's violations and its fragment failures.
type memberProbe struct {
	mode       nvdc.Mode
	errs, viol uint64
	frags      int
}

// At is pr itself: a parked member's kernel stands still, so what it read
// at parking is what it reads at any later epoch.
func (pr memberProbe) At(int) memberProbe { return pr }

// memberLevel is the pool's side of the supervisor contract: its children
// are its members, spares included.
type memberLevel struct{ *Pool }

func (l memberLevel) Read(i int) memberProbe {
	sys := l.members[i].sys
	pr := memberProbe{mode: sys.Driver.Mode(), errs: sys.Driver.ErrorEvents(), frags: l.health[i].fragErrs}
	if sys.Auditor != nil {
		pr.viol = sys.Auditor.ViolationCount()
	}
	return pr
}

// Verdict quarantines a member whose driver went read-only, whose auditor
// logged a violation or that failed QuarantineFragErrs fragments. A
// degraded driver, or driver error events or fragment failures grown since
// the last probe, is suspicious. ModeDegraded is sticky in the driver, so a
// degraded member stays Suspect for the run.
func (memberLevel) Verdict(cur, last *memberProbe) (string, bool, bool) {
	rebased := cur.errs != last.errs || cur.frags != last.frags
	switch {
	case cur.mode == nvdc.ModeReadOnly:
		return "driver read-only", false, rebased
	case cur.viol > 0:
		return fmt.Sprintf("%d protocol violations", cur.viol), false, rebased
	case cur.frags >= QuarantineFragErrs:
		return fmt.Sprintf("%d fragment failures", cur.frags), false, rebased
	}
	return "", cur.mode == nvdc.ModeDegraded || cur.errs > last.errs || cur.frags > last.frags, rebased
}

// Steady holds for a member with no fault registry and no detector
// bit-error noise. A member the pool does not advance completes nothing,
// so its fragment failures hold still, and its driver mode, error events
// and auditor violations can move while it only refreshes only through an
// injected fault or a noisy detector sample.
func (l memberLevel) Steady(i int) bool {
	sys := l.members[i].sys
	return sys.Faults == nil && sys.Detector.BitErrorRate == 0
}

// Condemn quarantines member i: it leaves service and, when it was serving
// a logical position, that position fails over to a hot spare.
func (l memberLevel) Condemn(i int) {
	h := l.health[i]
	h.inService = false
	if h.logical >= 0 {
		l.failover(h.logical, i)
	}
}

// CatchUp brings a parked member to the boundary of epoch to. One
// FastForwardIdle over the whole parked span is exact: it equals RunUntil
// by contract, and RunUntil to the boundary equals running it to each
// boundary the member skipped.
func (l memberLevel) CatchUp(i, to int) {
	l.members[i].sys.FastForwardIdle(l.origin.Add(sim.Duration(to) * l.epoch))
}
