package pool

// CopyPagesPerEpoch rate-limits a background copy: pages started per
// epoch per copy, so it shares each epoch with foreground traffic and its
// interference with foreground tails is measurable.
const CopyPagesPerEpoch = 8

// Copy is one rate-limited background copy of a victim's resident set, the
// engine behind the pool's spare rebuild and the fabric's evacuation
// migration. Pages is the set snapshotted when the copy starts (sorted,
// hence deterministic); each page copy is a read on the victim paired with
// a write on its destination. Copies are best-effort occupancy traffic:
// the owner counts a failed half and never retries it, since what matters
// is that the copy terminates and its interference window closes.
type Copy struct {
	Victim int
	// Dest is the one destination of a pool rebuild (the spare); the
	// fabric routes each page to its chunk's new owner and leaves it -1.
	Dest  int
	Pages []int64
	next  int // next Pages index to start
	// Outstanding counts started halves not yet collected.
	Outstanding int
}

// Issue starts up to CopyPagesPerEpoch more pages through start, which
// issues one page's halves and returns how many of them are outstanding.
func (c *Copy) Issue(start func(page int64) int) {
	for n := 0; n < CopyPagesPerEpoch && c.next < len(c.Pages); n++ {
		pg := c.Pages[c.next]
		c.next++
		c.Outstanding += start(pg)
	}
}

// rebuildEvent is a rebuild op completion, recorded member-locally mid-epoch
// and drained at the boundary like front-end completions.
type rebuildEvent struct {
	job   *Copy
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
		if h := p.health[i]; h.spare && !h.inService && p.sup.Kids[i].State == HealthUp {
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
	var pages []int64
	for _, pg := range p.members[victim].sys.Driver.Resident() {
		if (pg.LPN+1)*PageSize <= lim {
			pages = append(pages, pg.LPN)
		} else {
			p.ctrPool.Inc("rebuild-skipped")
		}
	}
	p.sup.Jobs = append(p.sup.Jobs, &Copy{Victim: victim, Dest: spare, Pages: pages})
}

// issueRebuilds runs at the epoch boundary before the kernels advance: each
// active rebuild, in order, starts its next page copies (Copy.Issue), a
// victim read and a spare write per LPN. Rebuild ops bypass the channel
// queues, windows and breakers — they are the pool's own evacuation
// traffic, not front-end submissions (the post-quarantine dispatch audit
// does not count them) — and draw no jitter, so the schedule is a pure
// function of the fault history.
func (p *Pool) issueRebuilds() {
	for _, j := range p.sup.Jobs {
		j.Issue(func(lpn int64) int {
			p.rebuildOp(j, j.Victim, lpn, false)
			p.rebuildOp(j, j.Dest, lpn, true)
			p.ctrPool.Inc("rebuild-pages")
			return 2
		})
	}
}

// rebuildOp schedules one page copy's half on member phys, first catching
// a parked member up to the boundary.
func (p *Pool) rebuildOp(j *Copy, phys int, lpn int64, write bool) {
	m := p.members[phys]
	p.sup.Wake(phys)
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
	for _, j := range p.sup.Jobs {
		if j.Victim == phys || j.Dest == phys {
			return true
		}
	}
	return false
}
