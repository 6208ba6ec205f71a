package pool

import "nvdimmc/internal/nvdc"

// rebuildJob copies a quarantined victim's resident state onto the spare
// that took over its logical position. Pages are the victim's cache-resident
// set snapshotted (LPN-sorted, hence deterministic) at failover time; each
// epoch the front end issues at most rebuildPagesPerEpoch page copies, each
// a victim read paired with a spare write, so the rebuild is rate-limited
// and its interference with foreground tails is measurable. The victim stays
// Quarantined until the last copy lands, then becomes Evacuated.
type rebuildJob struct {
	victim, spare int
	pages         []nvdc.ResidentPage
	next          int // next pages[] index to issue
	outstanding   int // issued ops (reads + writes) not yet collected
	readMiss      int // victim reads that failed (page copied best-effort)
	writeFail     int // spare writes that failed
}

// rebuildEvent is a rebuild op completion, recorded member-locally mid-epoch
// and drained at the boundary like front-end completions.
type rebuildEvent struct {
	job   *rebuildJob
	write bool
	err   error
}

// failover reroutes a logical position from a quarantined victim to the
// lowest-indexed free healthy spare and starts the background rebuild. With
// no spare free the position keeps pointing at the victim: fill() then fails
// its fragments with ErrMemberQuarantined (typed, never silent).
func (p *Pool) failover(logical, victim int) {
	spare := -1
	for i := p.Dec.Members(); i < len(p.members); i++ {
		h := p.health[i]
		if h.spare && !h.inService && h.state == StateUp {
			spare = i
			break
		}
	}
	if spare < 0 {
		p.ctrPool.Inc("failover-no-spare")
		return
	}
	sh := p.health[spare]
	sh.inService = true
	sh.logical = logical
	p.health[victim].logical = -1
	p.route[logical] = spare
	p.sparesUsed++
	p.ctrPool.Inc("failover")

	// Snapshot the victim's resident set now; front-end traffic no longer
	// reaches it, so the set only shrinks by our own (non-evicting) reads.
	// Bad-block spread makes per-member capacities differ slightly — skip
	// pages the smaller of the two devices cannot address.
	lim := p.members[victim].tgt.Capacity()
	if c := p.members[spare].tgt.Capacity(); c < lim {
		lim = c
	}
	all := p.members[victim].sys.Driver.Resident()
	pages := all[:0]
	for _, pg := range all {
		if (pg.LPN+1)*PageSize <= lim {
			pages = append(pages, pg)
		} else {
			p.ctrPool.Inc("rebuild-skipped")
		}
	}
	p.rebuilds = append(p.rebuilds, &rebuildJob{victim: victim, spare: spare, pages: pages})
}

// rebuildPagesPerEpoch rate-limits the background rebuild: page copies per
// epoch per job.
const rebuildPagesPerEpoch = 8

// issueRebuilds runs at the epoch boundary before the kernels advance: for
// each active job, in job order, it schedules up to rebuildPagesPerEpoch
// page copies. Rebuild ops bypass the channel queues, windows and breakers —
// they are the pool's own evacuation traffic, not front-end submissions (the
// post-quarantine dispatch audit does not count them) — and draw no jitter,
// so the schedule is a pure function of the fault history.
func (p *Pool) issueRebuilds() {
	for _, j := range p.rebuilds {
		budget := rebuildPagesPerEpoch
		for budget > 0 && j.next < len(j.pages) {
			pg := j.pages[j.next]
			j.next++
			budget--
			p.rebuildOp(j, j.victim, pg.LPN, false)
			p.rebuildOp(j, j.spare, pg.LPN, true)
			j.outstanding += 2
			p.ctrPool.Inc("rebuild-pages")
		}
	}
}

// rebuildOp schedules one page copy's half on member phys, first catching
// a parked member up to the boundary.
func (p *Pool) rebuildOp(j *rebuildJob, phys int, lpn int64, write bool) {
	m := p.members[phys]
	p.wake(m)
	cpu := m.tgt.ThreadCPU(PageSize, write)
	jj, mm, w := j, m, write
	m.sys.K.ScheduleAt(p.now.Add(cpu), func() {
		mm.tgt.DoE(lpn*PageSize, PageSize, w, func(err error) {
			mm.rdone = append(mm.rdone, rebuildEvent{job: jj, write: w, err: err})
		})
	})
}

// rebuilding reports whether an active rebuild job copies from or to
// member phys.
func (p *Pool) rebuilding(phys int) bool {
	for _, j := range p.rebuilds {
		if j.victim == phys || j.spare == phys {
			return true
		}
	}
	return false
}

// sweepRebuilds retires finished jobs after the boundary drain: a job is
// done when every page was issued and every op collected. The victim is then
// Evacuated. Failed victim reads or spare writes are counted, not retried —
// the copy is best-effort occupancy traffic (the pool carries no redundancy
// to reconstruct from); what matters for the campaign is that the job
// terminates and its interference window closes.
func (p *Pool) sweepRebuilds() {
	if len(p.rebuilds) == 0 {
		return
	}
	active := p.rebuilds[:0]
	for _, j := range p.rebuilds {
		if j.next >= len(j.pages) && j.outstanding == 0 {
			p.health[j.victim].state = StateEvacuated
			p.ctrPool.Inc("member-evacuated")
			continue
		}
		active = append(active, j)
	}
	p.rebuilds = active
}
