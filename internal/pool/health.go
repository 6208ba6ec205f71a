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

// MemberState is the pool-level health lattice for one member, strictly
// ordered: transitions only move right except Suspect -> Up.
//
//	Up -> Suspect -> Quarantined -> Evacuated
type MemberState int

const (
	// StateUp: serving traffic normally.
	StateUp MemberState = iota
	// StateSuspect: error activity observed (driver Degraded, error-counter
	// growth, or fragment failures); still serving, watched more closely.
	StateSuspect
	// StateQuarantined: the pool stopped routing front-end traffic to this
	// member (driver ReadOnly, auditor violation, or the fragment-failure
	// threshold). Evacuation reads for a rebuild are the only ops allowed.
	StateQuarantined
	// StateEvacuated: the member's resident state has been rebuilt onto a
	// spare; it receives no traffic of any kind.
	StateEvacuated
)

func (s MemberState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	case StateQuarantined:
		return "quarantined"
	case StateEvacuated:
		return "evacuated"
	}
	return fmt.Sprintf("MemberState(%d)", int(s))
}

// memberHealth is the pool's per-physical-member fault-tracking record. All
// fields are read and written only at epoch boundaries (single-threaded,
// canonical member order), so worker count cannot affect transitions.
type memberHealth struct {
	state MemberState
	// spare marks members constructed beyond the decoder's logical set.
	spare bool
	// inService: a spare actively serving a logical position.
	inService bool
	// logical is the logical index routed to this member (-1 for an idle or
	// drained member).
	logical int

	// lastErrs / lastViol / fragErrsAtProbe snapshot the counters at the
	// previous probe so probes react to deltas, not lifetime totals.
	lastErrs        uint64
	fragErrsAtProbe int
	// fragErrs counts fragment dispatches that completed with an error on
	// this member (lifetime).
	fragErrs int
	// cleanProbes counts consecutive probes with no new error activity; at
	// suspectClearProbes a Suspect healthy-mode member returns to Up.
	cleanProbes int

	quarantinedAt sim.Time
	reason        string
}

// suspectClearProbes is how many consecutive clean probes return a Suspect
// member to Up.
const suspectClearProbes = 4

// probeMembers runs the health probe over every member in canonical order.
// It is called at the epoch boundary after collect(), so quarantine
// decisions always precede the next fill(): no fill can dispatch to a member
// quarantined in this or any earlier epoch — the "no post-quarantine
// submissions" guarantee is structural, not best-effort.
func (p *Pool) probeMembers() {
	if p.epochs%p.Cfg.ProbeEvery != 0 {
		return
	}
	for i, m := range p.members {
		h := p.health[i]
		if h.state >= StateQuarantined {
			continue
		}
		d := m.sys.Driver
		errs := d.ErrorEvents()
		var viol uint64
		if m.sys.Auditor != nil {
			viol = m.sys.Auditor.ViolationCount()
		}
		switch {
		case d.Mode() == nvdc.ModeReadOnly:
			p.quarantine(i, "driver read-only")
		case viol > 0:
			p.quarantine(i, fmt.Sprintf("%d protocol violations", viol))
		case h.fragErrs >= p.Cfg.QuarantineFragErrs:
			p.quarantine(i, fmt.Sprintf("%d fragment failures", h.fragErrs))
		case d.Mode() == nvdc.ModeDegraded || errs > h.lastErrs || h.fragErrs > h.fragErrsAtProbe:
			if h.state == StateUp {
				h.state = StateSuspect
				p.ctrPool.Inc("member-suspect")
			}
			h.cleanProbes = 0
		case h.state == StateSuspect:
			h.cleanProbes++
			// ModeDegraded is sticky in the driver, so degraded members can
			// never take this branch: they stay Suspect for the run.
			if h.cleanProbes >= suspectClearProbes {
				h.state = StateUp
				p.ctrPool.Inc("member-recovered")
			}
		}
		h.lastErrs = errs
		h.fragErrsAtProbe = h.fragErrs
	}
}

// probesIdle reports whether every member probe from here until the front
// end next moves would take probeMembers' no-op path: no case of its switch
// matches, and rewriting the delta baselines changes nothing. A quiet batch
// may then jump probe epochs. Quarantined and evacuated members are never
// probed. Every other member must satisfy each clause below, because each
// failing clause takes a branch that acts:
//
//   - it is Up: a Suspect member's probe advances its clean streak;
//   - its driver error events and fragment errors have not grown since its
//     last probe: growth marks it Suspect;
//   - its auditor has logged no violation: any quarantines it;
//   - it has no fault registry and no detector bit-error noise.
//
// A healthy driver mode needs no clause of its own. Every mode change bumps
// a counter in nvdc.ErrorCounterNames, and the mode never heals: a member
// whose driver left ModeHealthy before its last probe was marked Suspect or
// quarantined by that probe, and one that left it since shows error growth.
//
// The last clause keeps the others true across the span. A quiet span
// never reaches collect, so fragment errors hold still. Driver error events
// and auditor violations can still move while a member only refreshes, but
// only through an injected fault or a noisy detector sample.
func (p *Pool) probesIdle() bool {
	for i, m := range p.members {
		h := p.health[i]
		if h.state >= StateQuarantined {
			continue
		}
		if h.state != StateUp || h.fragErrs != h.fragErrsAtProbe {
			return false
		}
		if m.sys.Faults != nil || m.sys.Detector.BitErrorRate != 0 {
			return false
		}
		if m.sys.Driver.ErrorEvents() != h.lastErrs {
			return false
		}
		if m.sys.Auditor != nil && m.sys.Auditor.ViolationCount() > 0 {
			return false
		}
	}
	return true
}

// quarantine moves a member to StateQuarantined and, when it was serving a
// logical position, fails that position over to a hot spare.
func (p *Pool) quarantine(phys int, reason string) {
	h := p.health[phys]
	h.state = StateQuarantined
	h.quarantinedAt = p.now
	h.reason = reason
	h.inService = false
	p.ctrPool.Inc("member-quarantine")
	if h.logical >= 0 {
		p.failover(h.logical, phys)
	}
}
