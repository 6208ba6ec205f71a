// Socket-level health lattice: the pool's member lattice lifted one level.
// Epoch-boundary probes diff each pool's health snapshot (pool.Probe) and
// walk the socket through Up → Suspect → Evacuating → Evacuated — monotone
// past Suspect, exactly like the member lattice past Quarantined. The
// strongest signals (a degraded position with no server, a pool-invariant
// breach) evacuate immediately; softer ones (new typed failures, driver
// error growth, open breakers, suspect members) mark the socket Suspect
// and escalate only after EvacuateAfterProbes consecutive suspect probes,
// so a transient burst the pool absorbs internally never costs a socket.
//
// Probes run after completion collection and before the next boundary's
// submissions, so no foreground piece is ever submitted to a socket the
// lattice has already condemned — the "zero post-evacuation submissions"
// gate is structural, not statistical.
package numa

import (
	"fmt"

	"nvdimmc/internal/pool"
)

// SocketState is a socket's position in the fabric lattice.
type SocketState int

const (
	// SocketUp: serving normally.
	SocketUp SocketState = iota
	// SocketSuspect: probe deltas look sick; traffic still flows while the
	// lattice waits for the streak to clear or condemn.
	SocketSuspect
	// SocketEvacuating: condemned — chunks re-homed to survivors, resident
	// set migrating in the background, all foreground refusals typed.
	SocketEvacuating
	// SocketEvacuated: migration drained; the socket serves nothing.
	SocketEvacuated
)

func (s SocketState) String() string {
	switch s {
	case SocketUp:
		return "up"
	case SocketSuspect:
		return "suspect"
	case SocketEvacuating:
		return "evacuating"
	case SocketEvacuated:
		return "evacuated"
	default:
		return "state?"
	}
}

type socketHealth struct {
	state  SocketState
	reason string
	// suspectProbes counts consecutive suspicious probes; cleanProbes the
	// clean streak that de-escalates Suspect. Either resets the other.
	suspectProbes int
	cleanProbes   int
	last          pool.Probe // snapshot at the previous probe (delta base)
}

// suspicious reports whether the probe delta since last looks unhealthy:
// new typed failures, driver error growth, new quarantines, live suspects
// or open breakers. These are pool-internal events the pool may well be
// absorbing (spares, retries, breakers) — grounds for suspicion, not
// immediate evacuation.
func suspicious(pr, last pool.Probe) bool {
	return pr.Failed > last.Failed ||
		pr.DriverErrors > last.DriverErrors ||
		pr.Quarantined > last.Quarantined ||
		pr.Suspects > 0 ||
		pr.BreakersOpen > 0
}

// condemned returns why a probe evacuates its socket outright, or "" when
// it does not.
func condemned(pr pool.Probe) string {
	switch {
	case pr.DegradedPositions > 0:
		// Positions with no healthy server: every fragment there fails
		// typed and no spare is left. The pool cannot recover alone.
		return fmt.Sprintf("%d degraded positions", pr.DegradedPositions)
	case pr.UntypedFailures > 0 || pr.PostQuarantine > 0:
		// The pool breached its own conservation invariants — the
		// strongest possible signal; get everything off it.
		return "pool invariant breach"
	}
	return ""
}

// probeSockets advances the lattice at every ProbeEvery-th boundary, in
// socket order — boundary-only, single-threaded, like all fabric state.
func (f *Fabric) probeSockets() {
	if f.epochs%f.Cfg.ProbeEvery != 0 {
		return
	}
	for si, s := range f.socks {
		h := s.health
		if h.state >= SocketEvacuating {
			continue // monotone past Evacuating
		}
		pr := f.probe(s)
		switch reason := condemned(pr); {
		case reason != "":
			f.evacuate(si, reason)
		case suspicious(pr, h.last):
			if h.state == SocketUp {
				h.state = SocketSuspect
				f.ctr.Inc("socket-suspect")
			}
			h.suspectProbes++
			h.cleanProbes = 0
			if h.suspectProbes >= f.Cfg.EvacuateAfterProbes {
				f.evacuate(si, fmt.Sprintf("%d consecutive suspect probes", h.suspectProbes))
			}
		case h.state == SocketSuspect:
			h.suspectProbes = 0
			h.cleanProbes++
			if h.cleanProbes >= pool.SuspectClearProbes {
				h.state = SocketUp
				h.reason = ""
				h.cleanProbes = 0
				f.ctr.Inc("socket-recovered")
			}
		}
		h.last = pr
	}
}

// probesIdle reports whether every socket probe from here until the fabric
// next moves would take probeSockets' no-op path, so a quiet batch may jump
// probe epochs. Evacuating and evacuated sockets are never probed. Every
// other socket must satisfy each clause below:
//
//   - it is Up: a Suspect socket's probe advances one of its streaks;
//   - its current probe is clean against h.last. It must not be condemned
//     (that evacuates) or suspicious (the socket turns Suspect), and
//     Quarantined must be unchanged. Failed and DriverErrors only grow, so
//     "not suspicious" already pins them. Quarantined can fall when a
//     rebuild finishes, and a probe that overwrote h.last with the lower
//     value would change what a later probe calls growth;
//   - its pool vouches for the span (pool.ProbeSteady): member probes are
//     no-ops and no closed breaker trips at its window end, so every
//     skipped probe would read the snapshot checked here. A parked socket
//     needs no call: its pool vouched when it parked, for the whole
//     horizon, or else that horizon ends at the next socket probe (park),
//     which bounds QuietEpochs' batch at least as tightly as this clause.
func (f *Fabric) probesIdle() bool {
	for _, s := range f.socks {
		h := s.health
		if h.state >= SocketEvacuating {
			continue
		}
		if h.state != SocketUp || !s.parked && !s.pool.ProbeSteady() {
			return false
		}
		pr := f.probe(s)
		if condemned(pr) != "" || suspicious(pr, h.last) || pr.Quarantined != h.last.Quarantined {
			return false
		}
	}
	return true
}

// probe reads socket s's pool.Probe. A parked socket's is the snapshot
// pinned when it parked, stamped with the fabric's epoch count as its live
// pool's would be, so the lattice's baseline (h.last) matches a lockstep
// run field for field.
func (f *Fabric) probe(s *socket) pool.Probe {
	if !s.parked {
		return s.pool.Probe()
	}
	pr := s.pinned
	pr.Epochs = f.epochs
	return pr
}

// survivors returns the sockets still accepting re-homed chunks (Up or
// Suspect), in index order.
func (f *Fabric) survivors(except int) []int {
	var out []int
	for si, s := range f.socks {
		if si != except && s.health.state <= SocketSuspect {
			out = append(out, si)
		}
	}
	return out
}

// evacuate condemns socket victim: every directory chunk it serves —
// its own and any it absorbed from earlier evacuations — re-homes
// round-robin across survivors, and a rate-limited migration job starts
// copying its resident set to the new owners. With no survivor left the
// socket goes straight to Evacuated: its chunks keep their dead owner and
// every dispatch refuses typed (ErrSocketEvacuated) — degraded, never
// silent.
func (f *Fabric) evacuate(victim int, reason string) {
	h := f.socks[victim].health
	h.state = SocketEvacuating
	h.reason = reason
	f.ctr.Inc("socket-evacuating")

	surv := f.survivors(victim)
	if len(surv) == 0 {
		h.state = SocketEvacuated
		f.ctr.Inc("socket-evacuated")
		f.ctr.Inc("evacuate-no-survivor")
		return
	}
	rehomed := 0
	for i, o := range f.owner {
		if o != victim {
			continue
		}
		f.owner[i] = surv[f.reown%len(surv)]
		f.reown++
		rehomed++
	}
	f.ctr.Add("chunks-rehomed", uint64(rehomed))
	f.startMigration(victim)
}
