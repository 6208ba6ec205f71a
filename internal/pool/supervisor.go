// The supervisor: the health lattice, probe schedule, parking, quiet
// horizon and retry queue a level runs over its children, written once for
// both levels of the lift
//
//	member : pool  ::  pool (socket) : fabric
//
// A Pool supervises its members and a numa.Fabric its socket pools. Each
// level supplies only what differs (Level): how a child is read and judged,
// what condemning one does, and how a parked one catches up. Everything
// here runs at epoch boundaries, single-threaded, in child order, so no
// transition depends on worker count.
package pool

import (
	"fmt"

	"nvdimmc/internal/metrics"
)

// Health is a child's position in the lattice, strictly ordered:
// transitions only move right except Suspect -> Up.
//
//	Up -> Suspect -> Condemned -> Evacuated
//
// Each level names the states its own way (MemberState, numa.SocketState).
type Health int

const (
	// HealthUp: serving normally.
	HealthUp Health = iota
	// HealthSuspect: a probe looked sick; still serving while the lattice
	// waits for a clean streak to clear it or a condemnation.
	HealthSuspect
	// HealthCondemned: out of service; the level moves its work elsewhere.
	HealthCondemned
	// HealthEvacuated: its work has moved; it serves nothing.
	HealthEvacuated
)

// Name names h at a level that calls its condemned state condemned.
func (h Health) Name(condemned string) string {
	switch h {
	case HealthUp:
		return "up"
	case HealthSuspect:
		return "suspect"
	case HealthCondemned:
		return condemned
	case HealthEvacuated:
		return "evacuated"
	}
	return fmt.Sprintf("Health(%d)", int(h))
}

// SuspectClearProbes is how many consecutive clean probes return a Suspect
// child to Up, at either level.
const SuspectClearProbes = 4

// Snapshot is what a probe reads off one child. At re-dates a snapshot
// pinned when its child parked to the level's epoch count e, as a live read
// taken at e would be dated.
type Snapshot[S any] interface{ At(e int) S }

// Level is a supervised level's side of the contract: what differs between
// a pool's members and a fabric's sockets. Children are named by index.
type Level[S any] interface {
	// Read returns live child i's probe snapshot.
	Read(i int) S
	// Verdict judges snapshot cur against last, the one the previous probe
	// of the child read. A non-empty reason condemns the child; suspicious
	// marks it Suspect; neither is a clean probe. rebased reports that
	// adopting cur as the baseline would change what a later verdict calls
	// growth. Verdicts ignore the date (Snapshot.At).
	Verdict(cur, last *S) (reason string, suspicious, rebased bool)
	// Steady reports that live child i's snapshot holds until the level
	// next acts on the child: nothing inside the child can move it.
	Steady(i int) bool
	// Condemn takes child i out of service once the lattice condemned it.
	Condemn(i int)
	// CatchUp advances parked child i to the level's epoch count to.
	CatchUp(i, to int)
}

// Lattice is a child's position in the health lattice.
type Lattice[S any] struct {
	State Health
	// Reason says why the child was condemned ("" while serving).
	Reason string
	// SuspectProbes counts consecutive suspicious probes, CleanProbes the
	// clean streak that returns a Suspect child to Up; each resets the
	// other.
	SuspectProbes, CleanProbes int
	// Last is the snapshot the previous probe read: the next verdict's
	// delta base.
	Last S
}

// Child is the supervisor's record of one child.
type Child[S any] struct {
	Lattice[S]
	// Parked marks a quiescent child the level stopped advancing: it stands
	// at an earlier boundary until Wake catches it up, or the advance to
	// Until, the end of the horizon its level proved, does. Pinned is its
	// snapshot at parking, which the probes read meanwhile.
	Parked bool
	Until  int
	Pinned S
}

// Retry is a failed piece waiting out its backoff: it re-enters the level
// at epoch Ready.
type Retry struct {
	Item  *Piece
	Ready int
}

// Supervisor runs the lattice, parking, horizon and retry queue over one
// level's children. S is the probe snapshot.
type Supervisor[S Snapshot[S]] struct {
	Kids    []Child[S]
	Retries []Retry
	// Policy is the level's side of the retry decision (Retry).
	Policy RetryPolicy
	// Jobs are the running copies of condemned children's work: a pool's
	// spare rebuilds, a fabric's evacuation migrations.
	Jobs []*Copy
	// Epochs counts the level's epochs. Boundary is the epoch count its
	// live children stand at: Epochs between steps, one less while a Step
	// issues work before its children advance. Wake catches a parked child
	// up to it.
	Epochs, Boundary int
	// Every gates probes to every Every-th epoch. A child whose probes stay
	// suspicious Escalate times in a row is condemned (0: never).
	Every, Escalate int
	// Skipped counts the advances parked children sat out and QuietSpan the
	// epochs quiet spans covered: lookahead diagnostics, like Jumped, kept
	// out of every level's Stats so lockstep and lookahead runs stay
	// byte-comparable. probes counts the probe passes Settle ran.
	Skipped, QuietSpan, probes int

	lvl Level[S]
	// live holds the reading being judged.
	live S
	ctr  *metrics.Counters
	// names are the transition counters: suspect, recovered, condemned,
	// evacuated.
	names [4]string
}

// NewSupervisor supervises n children of lvl, all Up, and retries their
// failed pieces under pol. The transitions are booked in ctr as
// kind-suspect, kind-recovered, condemned and kind-evacuated.
func NewSupervisor[S Snapshot[S]](lvl Level[S], n, every, escalate int, pol RetryPolicy, ctr *metrics.Counters, kind, condemned string) Supervisor[S] {
	return Supervisor[S]{
		Kids:     make([]Child[S], n),
		Policy:   pol,
		Every:    every,
		Escalate: escalate,
		lvl:      lvl,
		ctr:      ctr,
		names:    [4]string{kind + "-suspect", kind + "-recovered", condemned, kind + "-evacuated"},
	}
}

// Settle is the end-of-epoch pass. Levels run it after collecting
// completions and before the next boundary's submissions, so no work
// reaches a child the lattice has condemned: that guarantee is structural,
// not statistical. A drained copy (every page started, every half
// collected) leaves Jobs, in order, and its victim is Evacuated. Then, at
// every Every-th epoch, the lattice probes its children in order;
// condemned and evacuated children are never probed again.
func (s *Supervisor[S]) Settle() {
	keep := s.Jobs[:0]
	for _, c := range s.Jobs {
		if c.next < len(c.Pages) || c.Outstanding > 0 {
			keep = append(keep, c)
			continue
		}
		s.Evacuated(c.Victim)
	}
	s.Jobs = keep
	if s.Epochs%s.Every != 0 {
		return
	}
	s.probes++
	for i := range s.Kids {
		k := &s.Kids[i]
		if k.State >= HealthCondemned {
			continue
		}
		if k.Parked {
			s.live = k.Pinned.At(s.Epochs)
		} else {
			s.live = s.lvl.Read(i)
		}
		reason, suspicious, _ := s.lvl.Verdict(&s.live, &k.Last)
		k.Last = s.live
		switch {
		case reason != "":
			s.Condemn(i, reason)
		case suspicious:
			if k.State == HealthUp {
				k.State = HealthSuspect
				s.ctr.Inc(s.names[0])
			}
			k.SuspectProbes++
			k.CleanProbes = 0
			if s.Escalate > 0 && k.SuspectProbes >= s.Escalate {
				s.Condemn(i, fmt.Sprintf("%d consecutive suspect probes", k.SuspectProbes))
			}
		case k.State == HealthSuspect:
			k.SuspectProbes = 0
			k.CleanProbes++
			if k.CleanProbes >= SuspectClearProbes {
				k.State = HealthUp
				k.CleanProbes = 0
				s.ctr.Inc(s.names[1])
			}
		}
	}
}

// Condemn moves child i to Condemned and hands it to its level.
func (s *Supervisor[S]) Condemn(i int, reason string) {
	k := &s.Kids[i]
	k.State, k.Reason = HealthCondemned, reason
	s.ctr.Inc(s.names[2])
	s.lvl.Condemn(i)
}

// Evacuated marks condemned child i's work moved.
func (s *Supervisor[S]) Evacuated(i int) {
	s.Kids[i].State = HealthEvacuated
	s.ctr.Inc(s.names[3])
}

// probesIdle reports whether every probe from here until the level next
// acts would take Settle's no-op path, so a quiet span may jump probe
// epochs. Condemned and evacuated children are never probed. Every other
// child must be Up (a Suspect child's probe moves a streak), its probe
// must be clean and rebase nothing, and its snapshot must hold over the
// span, so that every skipped probe would read the snapshot checked here:
// a parked child's pinned snapshot holds by the parking contract (Park),
// and a live one must be Steady.
func (s *Supervisor[S]) probesIdle() bool {
	for i := range s.Kids {
		k := &s.Kids[i]
		if k.State >= HealthCondemned {
			continue
		}
		if k.State != HealthUp {
			return false
		}
		cur := &k.Pinned
		if !k.Parked {
			if !s.lvl.Steady(i) {
				return false
			}
			s.live = s.lvl.Read(i)
			cur = &s.live
		}
		if reason, suspicious, rebased := s.lvl.Verdict(cur, &k.Last); reason != "" || suspicious || rebased {
			return false
		}
	}
	return true
}

// Horizon bounds a quiet span of at most k epochs by the supervisor's own
// boundary events; each level bounds it further by its own (QuietEpochs).
//
//   - The next probe epoch, but only when a probe could act. A probe moves
//     streaks and baselines, so a span may end on a probe epoch (StepQuiet
//     runs the probe there) but never jump one, unless probesIdle proves
//     every probe in the span a no-op.
//   - Each retry's ready epoch, minus one: the promoting boundary must be a
//     real Step.
//   - Each parked child's horizon: it never lags past what its level
//     proved when it parked.
func (s *Supervisor[S]) Horizon(k int) int {
	if d := s.Every - s.Epochs%s.Every; d < k && !s.probesIdle() {
		k = d
	}
	for _, r := range s.Retries {
		k = min(k, r.Ready-s.Epochs-1)
	}
	for i := range s.Kids {
		if s.Kids[i].Parked {
			k = min(k, s.Kids[i].Until-s.Epochs)
		}
	}
	return k
}

// Jump moves the epoch count over a quiet span of k epochs. The probe of
// the span's final epoch is the level's to run (Settle), after its
// children have advanced: that epoch may be a probe epoch, and none before
// it can act.
func (s *Supervisor[S]) Jump(k int) {
	s.QuietSpan += k
	s.Epochs += k
}

// Jumped returns how many probe epochs passed without a probe: those strictly
// inside quiet spans.
func (s *Supervisor[S]) Jumped() int { return s.Epochs/s.Every - s.probes }

// Park parks live child i, which its level found quiescent, up to epoch
// until at most, and reports whether it did. Its snapshot is pinned for the
// probes. A child that is not Steady could move its snapshot, so it parks
// only up to the next probe epoch, where it is caught up before the probe
// reads it; that also bounds every quiet span (Horizon). A horizon under
// two epochs is not worth parking for. Steady can only lower the horizon,
// so a short one is refused before Steady is asked.
func (s *Supervisor[S]) Park(i, until int) bool {
	if until-s.Epochs < 2 {
		return false
	}
	if !s.lvl.Steady(i) {
		if until = min(until, s.Epochs+s.Every-s.Epochs%s.Every); until-s.Epochs < 2 {
			return false
		}
	}
	k := &s.Kids[i]
	k.Parked, k.Until, k.Pinned = true, until, s.lvl.Read(i)
	return true
}

// Skip reports whether child i sits out the level's advance to epoch to: a
// parked child does, and one whose horizon ends there is caught up to it
// instead. A live child costs one field read.
func (s *Supervisor[S]) Skip(i, to int) bool { return s.Kids[i].Parked && s.skip(i, to) }

func (s *Supervisor[S]) skip(i, to int) bool {
	if to < s.Kids[i].Until {
		s.Skipped++
	} else {
		s.catchUp(i, to)
	}
	return true
}

// catchUp unparks child i and has its level advance it to epoch to.
func (s *Supervisor[S]) catchUp(i, to int) {
	s.Kids[i].Parked = false
	s.lvl.CatchUp(i, to)
}

// Wake catches parked child i up to the boundary and unparks it. Levels
// call it wherever they hand a child work or hand it out. Probes need no
// wake: they read the pinned snapshot.
func (s *Supervisor[S]) Wake(i int) {
	if s.Kids[i].Parked {
		s.catchUp(i, s.Boundary)
	}
}

// CheckDrained is the audit of a drained level: no piece stranded in retry
// backoff and no copy job still running.
func (s *Supervisor[S]) CheckDrained() error {
	if len(s.Retries) != 0 {
		return fmt.Errorf("%d pieces stranded in retry backoff", len(s.Retries))
	}
	if len(s.Jobs) != 0 {
		return fmt.Errorf("%d copy jobs still active", len(s.Jobs))
	}
	return nil
}

// Promote hands every retry whose backoff has elapsed to admit, in queue
// order, and keeps the rest.
func (s *Supervisor[S]) Promote(admit func(*Piece)) {
	if len(s.Retries) == 0 {
		return
	}
	keep := s.Retries[:0]
	for _, r := range s.Retries {
		if r.Ready > s.Epochs {
			keep = append(keep, r)
			continue
		}
		admit(r.Item)
	}
	s.Retries = keep
}

// RetryBackoff returns the delay, in epochs, before retry attempt n
// (1-based): one epoch, doubling per attempt, capped at eight. Both levels
// back off on this one schedule.
func RetryBackoff(n int) int {
	const first, max = 1, 8
	if d := first << (n - 1); d <= max {
		return d
	}
	return max
}
