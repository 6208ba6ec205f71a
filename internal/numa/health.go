// Socket health: the fabric's side of the supervisor contract. The
// strongest probe signals (a degraded position with no server, a
// pool-invariant breach) evacuate a socket immediately; softer ones (new
// typed failures, driver error growth, open breakers, suspect members) mark
// it Suspect and escalate only after EvacuateAfterProbes consecutive
// suspect probes, so a transient burst the pool absorbs internally never
// costs a socket.
package numa

import (
	"fmt"

	"nvdimmc/internal/pool"
)

// SocketState is a socket's position in the lattice (pool.Health), named
// for sockets.
type SocketState pool.Health

const (
	// SocketUp: serving normally.
	SocketUp = SocketState(pool.HealthUp)
	// SocketSuspect: probe deltas look sick; traffic still flows while the
	// lattice waits for the streak to clear or condemn.
	SocketSuspect = SocketState(pool.HealthSuspect)
	// SocketEvacuating: condemned — chunks re-homed to survivors, resident
	// set migrating in the background, all foreground refusals typed.
	SocketEvacuating = SocketState(pool.HealthCondemned)
	// SocketEvacuated: migration drained; the socket serves nothing.
	SocketEvacuated = SocketState(pool.HealthEvacuated)
)

func (s SocketState) String() string { return pool.Health(s).Name("evacuating") }

// suspicious reports whether the probe delta since last looks unhealthy:
// new typed failures, driver error growth, new quarantines, live suspects
// or open breakers. These are pool-internal events the pool may well be
// absorbing (spares, retries, breakers) — grounds for suspicion, not
// immediate evacuation.
func suspicious(pr, last *pool.Probe) bool {
	return pr.Failed > last.Failed ||
		pr.DriverErrors > last.DriverErrors ||
		pr.Quarantined > last.Quarantined ||
		pr.Suspects > 0 ||
		pr.BreakersOpen > 0
}

// condemned returns why a probe evacuates its socket outright, or "" when
// it does not.
func condemned(pr *pool.Probe) string {
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

// socketLevel is the fabric's side of the supervisor contract: its
// children are its socket pools.
type socketLevel struct{ *Fabric }

func (l socketLevel) Read(i int) pool.Probe { return l.socks[i].pool.Probe() }

// Verdict evacuates a condemned socket and suspects a suspicious one. Failed
// and DriverErrors only grow, so a clean probe pins them; Quarantined can
// fall when a rebuild finishes, and a baseline lowered to it would change
// what a later probe calls growth.
func (socketLevel) Verdict(cur, last *pool.Probe) (string, bool, bool) {
	return condemned(cur), suspicious(cur, last), cur.Quarantined != last.Quarantined
}

// Steady holds when the socket's pool vouches that its snapshot stays put
// (pool.ProbeSteady).
func (l socketLevel) Steady(i int) bool { return l.socks[i].pool.ProbeSteady() }

// Condemn evacuates socket i (evacuate).
func (l socketLevel) Condemn(i int) { l.evacuate(i) }

// CatchUp advances a parked socket's pool to fabric epoch to with one Step
// or StepQuiet: exact, because to lies inside the horizon the pool's
// QuietEpochs reported when the socket parked, and StepQuiet over any part
// of such a span equals that many Steps.
func (l socketLevel) CatchUp(i, to int) {
	p := l.socks[i].pool
	switch gap := to - p.Epochs(); {
	case gap == 1:
		p.Step()
	case gap > 1:
		p.StepQuiet(gap)
	}
}

// survivors returns the sockets still accepting re-homed chunks (Up or
// Suspect), in index order.
func (f *Fabric) survivors(except int) []int {
	var out []int
	for si := range f.socks {
		if si != except && f.sup.Kids[si].State <= pool.HealthSuspect {
			out = append(out, si)
		}
	}
	return out
}

// evacuate acts on condemned socket victim: every directory chunk it
// serves — its own and any it absorbed from earlier evacuations — re-homes
// round-robin across survivors, and a rate-limited migration job starts
// copying its resident set to the new owners. With no survivor left the
// socket goes straight to Evacuated: its chunks keep their dead owner and
// every dispatch refuses typed (ErrSocketEvacuated) — degraded, never
// silent.
func (f *Fabric) evacuate(victim int) {
	surv := f.survivors(victim)
	if len(surv) == 0 {
		f.sup.Evacuated(victim)
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
