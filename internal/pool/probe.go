// Fabric-facing health hooks: the NUMA layer composes pools the way the
// pool composes members, so it needs the same two primitives the pool's own
// probe/rebuild machinery uses internally — a cheap read-only health
// snapshot to fold into a socket-level lattice, and a pooled-address view
// of the resident set so an evacuation engine can replay a whole socket's
// occupancy onto survivors. Both are boundary-only: callers invoke them
// between Step calls, never while members are advancing.
package pool

import "sort"

// Probe is a read-only snapshot of the pool's live health, taken at an
// epoch boundary. The NUMA fabric diffs consecutive probes to drive its
// socket lattice: monotone counters (Failed, DriverErrors, Quarantined)
// signal by their deltas, gauges (Suspects, BreakersOpen,
// DegradedPositions) by their level.
type Probe struct {
	Epochs    int
	Submitted uint64
	Completed uint64
	Failed    uint64

	// UntypedFailures / PostQuarantine mirror the CheckHealth invariants:
	// nonzero means the pool itself has breached conservation, the
	// strongest possible evacuation signal.
	UntypedFailures uint64
	PostQuarantine  uint64

	Suspects    int // members currently Suspect
	Quarantined int // members currently Quarantined
	Evacuated   int // members fully evacuated onto spares
	// DegradedPositions counts logical positions routed to a member at or
	// past Quarantined — positions with no healthy server, where every
	// fragment fails typed. Nonzero means the pool is shedding capacity
	// with no spare left to absorb it.
	DegradedPositions int
	BreakersOpen      int // channels whose breaker is not closed
	SparesFree        int // healthy spares not yet in service
	DriverErrors      uint64
}

// Probe snapshots the pool's health counters without mutating anything.
func (p *Pool) Probe() Probe {
	pr := Probe{
		Epochs:          p.epochs,
		Submitted:       p.led.Submitted,
		Completed:       p.led.Completed,
		Failed:          p.led.Failed,
		UntypedFailures: p.led.UntypedFailures,
		PostQuarantine:  p.postQuarantine,
	}
	for i, m := range p.members {
		h := p.health[i]
		switch h.state {
		case StateSuspect:
			pr.Suspects++
		case StateQuarantined:
			pr.Quarantined++
		case StateEvacuated:
			pr.Evacuated++
		}
		if h.spare && !h.inService && h.state == StateUp {
			pr.SparesFree++
		}
		pr.DriverErrors += m.sys.Driver.Health().ErrorEvents
	}
	for _, phys := range p.route {
		if p.health[phys].state >= StateQuarantined {
			pr.DegradedPositions++
		}
	}
	for _, ch := range p.chans {
		if ch.brk.state != breakerClosed {
			pr.BreakersOpen++
		}
	}
	return pr
}

// ProbeSteady reports whether Probe's snapshot is pinned over any span
// QuietEpochs admits from this boundary: no field the fabric's socket
// lattice reads can move before the front end next does. Two things could
// move one in a quiet span. A member probe could act and change Suspects or
// Quarantined; probesIdle rules that out, and with it any driver-error
// growth. A closed breaker whose window already holds a tripping sample set
// trips at its window-end tick, with no new observation, and raises
// BreakersOpen; tripReady rules that out. Open and half-open breakers never
// close without observations, so they cannot lower BreakersOpen.
func (p *Pool) ProbeSteady() bool {
	for _, ch := range p.chans {
		if ch.brk.tripReady() {
			return false
		}
	}
	return p.probesIdle()
}

// ResidentPooled returns the pooled byte offsets of every DRAM-cache
// resident page across serving members, ascending. Each logical position is
// read through the current route (so pages a spare absorbed during rebuild
// count once, under the spare), and member-local addresses are mapped back
// through the decoder's inverse — the same snapshot-then-replay shape as
// the rebuild engine, one level up: the fabric migrates this set to
// surviving sockets when it evacuates this one.
func (p *Pool) ResidentPooled() []int64 {
	var out []int64
	for l := 0; l < p.Dec.Members(); l++ {
		phys := p.route[l]
		for _, pg := range p.members[phys].sys.Driver.Resident() {
			memberOff := pg.LPN * PageSize
			if memberOff+PageSize > p.Dec.memberCap {
				// Capacity clamp, as in failover(): cache slots past the
				// interleave-aligned capacity are not pooled-addressable.
				continue
			}
			out = append(out, p.Dec.Inverse(l, memberOff))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
